open Tl_core
module Obj_model = Tl_heap.Obj_model
module Header = Tl_heap.Header
module Backoff = Tl_runtime.Backoff
module Parker = Tl_runtime.Parker
module Index_table = Tl_monitor.Index_table
module Ev = Tl_events.Event

(* One queue node per acquisition episode.  [must_wait] is the flag
   the waiter spins on; [next] is filled in by the successor.

   [tail] holds nodes directly, with a sentinel [nil] node for
   "empty": [Atomic.compare_and_set] uses physical equality, and a
   freshly-boxed [Some node] would never compare equal to the cell's
   contents — the release CAS must compare the physically-stable node
   itself.  [next] is only ever read and written (never CASed), so an
   option is fine there. *)
type node = { must_wait : bool Atomic.t; next : node option Atomic.t }

let nil = { must_wait = Atomic.make false; next = Atomic.make None }

let fresh_node () = { must_wait = Atomic.make false; next = Atomic.make None }

type waiter = { parker : Parker.t; mutable notified : bool }

type mon = {
  tail : node Atomic.t;
  (* The fields below are written only while holding the queue lock. *)
  mutable owner : int;
  mutable count : int;
  mutable holder_node : node;
  wait_set : waiter Queue.t;
}

let fresh_mon () =
  { tail = Atomic.make nil; owner = 0; count = 0; holder_node = nil; wait_set = Queue.create () }

type ctx = { table : mon Index_table.t; ops : Monitor_ops.t }

let name = "mcs"

let create_with ?events _runtime =
  { table = Index_table.create (); ops = Monitor_ops.create ?events () }

let create runtime = create_with runtime
let stats ctx = ctx.ops.stats

let rec monitor_of ctx obj =
  let lw = Obj_model.lockword obj in
  let word = Atomic.get lw in
  if Header.is_inflated word then Index_table.get ctx.table (Header.monitor_index word)
  else begin
    let monitor_index = Index_table.allocate ctx.table (fresh_mon ()) in
    let inflated = Header.inflated_word ~hdr:(Header.hdr_bits word) ~monitor_index in
    if Atomic.compare_and_set lw word inflated then Index_table.get ctx.table monitor_index
    else begin
      (* Lost the installation race; nobody ever saw this handle, so
         the slot can be recycled immediately. *)
      Index_table.free ctx.table monitor_index;
      monitor_of ctx obj
    end
  end

let my_index (env : Tl_runtime.Runtime.env) = env.Tl_runtime.Runtime.descriptor.Tl_runtime.Tid.index

(* Classic MCS acquire: one atomic exchange; spin on our own node.  The
   spin backs off through the waiter's parker, so a fiber waiter yields
   to a holder queued on its own carrier instead of sleeping it. *)
let mcs_lock env mon node =
  Atomic.set node.next None;
  let pred = Atomic.exchange mon.tail node in
  if pred == nil then false (* uncontended *)
  else begin
    Atomic.set node.must_wait true;
    Atomic.set pred.next (Some node);
    let backoff = Backoff.create ~parker:env.Tl_runtime.Runtime.parker () in
    while Atomic.get node.must_wait do
      Backoff.once backoff
    done;
    true
  end

(* Classic MCS release: one compare-and-swap in the common case — the
   atomic operation the paper contrasts with thin locks' plain
   store. *)
let mcs_unlock env mon node =
  match Atomic.get node.next with
  | Some successor -> Atomic.set successor.must_wait false
  | None ->
      if Atomic.compare_and_set mon.tail node nil then ()
      else begin
        (* A successor is linking itself in; wait for the link. *)
        let backoff = Backoff.create ~parker:env.Tl_runtime.Runtime.parker () in
        let rec await () =
          match Atomic.get node.next with
          | Some successor -> Atomic.set successor.must_wait false
          | None ->
              Backoff.once backoff;
              await ()
        in
        await ()
      end

let lock_mon env mon =
  let me = my_index env in
  if mon.owner = me then begin
    mon.count <- mon.count + 1;
    `Nested mon.count
  end
  else begin
    let node = fresh_node () in
    let contended = mcs_lock env mon node in
    mon.owner <- me;
    mon.count <- 1;
    mon.holder_node <- node;
    if contended then `Contended else `Fast
  end

let full_unlock env mon =
  let node = mon.holder_node in
  assert (node != nil);
  mon.owner <- 0;
  mon.count <- 0;
  mon.holder_node <- nil;
  mcs_unlock env mon node

let unlock_mon env mon =
  let me = my_index env in
  if mon.owner <> me then
    raise
      (Tl_monitor.Fatlock.Illegal_monitor_state
         (Printf.sprintf "mcs release: thread %d is not the owner (%d)" me mon.owner));
  if mon.count > 1 then mon.count <- mon.count - 1 else full_unlock env mon

(* MCS has no thin path: every entry, the uncontended swap and a nested
   re-entry included, is booked as a monitor acquire, queued only when
   it had to wait for a predecessor. *)
let acquire ctx env obj =
  let mon = monitor_of ctx obj in
  let tid = my_index env in
  let entered = lock_mon env mon in
  (match entered with
  | `Fast -> Lock_stats.record_acquire_fat ctx.ops.stats ~tid obj ~queued:false ~depth:1
  | `Nested depth -> Lock_stats.record_acquire_fat ctx.ops.stats ~tid obj ~queued:false ~depth
  | `Contended -> Lock_stats.record_acquire_fat ctx.ops.stats ~tid obj ~queued:true ~depth:1);
  if ctx.ops.tracing then
    Monitor_ops.emit ctx.ops env
      (match entered with `Contended -> Ev.Acquire_fat_queued | `Fast | `Nested _ -> Ev.Acquire_fat)
      obj

let release ctx env obj =
  let mon = monitor_of ctx obj in
  (* Stamped before the queue lock changes hands; a release by a
     non-owner raises after its event and the oracle flags it. *)
  if ctx.ops.tracing then Monitor_ops.emit ctx.ops env Ev.Release_fat obj;
  unlock_mon env mon;
  Lock_stats.record_release ctx.ops.stats ~tid:(my_index env) `Fat

let remove_waiter q w =
  let keep = Queue.create () in
  Queue.iter (fun x -> if x != w then Queue.push x keep) q;
  Queue.clear q;
  Queue.transfer keep q

let wait ?timeout ctx env obj =
  let mon = monitor_of ctx obj in
  let me = my_index env in
  if mon.owner <> me then
    raise (Tl_monitor.Fatlock.Illegal_monitor_state "mcs wait: not owner");
  Lock_stats.record_wait ctx.ops.stats ~tid:(my_index env);
  if ctx.ops.tracing then Monitor_ops.emit ctx.ops env Ev.Wait_op obj;
  let saved = mon.count in
  let w = { parker = env.Tl_runtime.Runtime.parker; notified = false } in
  Queue.push w mon.wait_set;
  full_unlock env mon;
  (* Park until notified; filter out stale permits.  On timeout we may
     still be in the wait set — removal happens after re-acquiring,
     when touching the queue is safe again. *)
  let rec block () =
    match timeout with
    | None ->
        Parker.park w.parker;
        if not w.notified then block ()
    | Some seconds ->
        let consumed = Parker.park_timeout w.parker ~seconds in
        if consumed && not w.notified then block ()
  in
  block ();
  ignore (lock_mon env mon);
  if not w.notified then remove_waiter mon.wait_set w;
  mon.count <- saved

let notify ctx env obj =
  let mon = monitor_of ctx obj in
  if mon.owner <> my_index env then
    raise (Tl_monitor.Fatlock.Illegal_monitor_state "mcs notify: not owner");
  Lock_stats.record_notify ctx.ops.stats ~tid:(my_index env);
  if ctx.ops.tracing then Monitor_ops.emit ctx.ops env Ev.Notify_op obj;
  if not (Queue.is_empty mon.wait_set) then begin
    let w = Queue.pop mon.wait_set in
    w.notified <- true;
    Parker.unpark w.parker
  end

let notify_all ctx env obj =
  let mon = monitor_of ctx obj in
  if mon.owner <> my_index env then
    raise (Tl_monitor.Fatlock.Illegal_monitor_state "mcs notifyAll: not owner");
  Lock_stats.record_notify_all ctx.ops.stats ~tid:(my_index env);
  if ctx.ops.tracing then Monitor_ops.emit ctx.ops env Ev.Notify_all_op obj;
  while not (Queue.is_empty mon.wait_set) do
    let w = Queue.pop mon.wait_set in
    w.notified <- true;
    Parker.unpark w.parker
  done

let holds ctx env obj = (monitor_of ctx obj).owner = my_index env
