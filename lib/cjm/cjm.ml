(* Compact Java Monitors: no per-object lock word at all.  Lock state
   lives in a transient open-addressed table keyed on object identity,
   striped into independently mutexed shards.  An entry exists only
   while its object is locked, contended, or pinned by an in-flight
   blocking operation; the monitor lifecycle is trivial — created at
   first contention, removed by whichever mutator finds it idle — so
   none of the thin scheme's deflation machinery (DIP bit, handshake,
   reaper) has a counterpart here.

   Lock ordering: shard stripe, then Fatlock latch — never the
   reverse.  Every Fatlock call made under a stripe is non-blocking
   ([try_acquire], [release], [notify], [notify_all], [is_idle],
   [count], [create_locked]); the blocking calls ([acquire], [wait])
   run outside the stripe, protected by a pin ([refs]) taken under it.

   Pin discipline: inline paths (fast/nested acquire, inline release,
   notify, holds) complete inside one stripe critical section and need
   no pin — the entry is kept alive by [owner <> 0].  [refs] counts
   only operations blocked outside the stripe; an entry is removed
   only under its stripe with [refs = 0], so a pinned record can never
   be recycled under an operation that holds a reference to it. *)

module Runtime = Tl_runtime.Runtime
module Tid = Tl_runtime.Tid
module Obj_model = Tl_heap.Obj_model
module Fatlock = Tl_monitor.Fatlock
module Lock_stats = Tl_core.Lock_stats
module Sink = Tl_events.Sink
module Ev = Tl_events.Event

type config = { shards : int; initial_capacity : int; record_stats : bool }

let default_config = { shards = 64; initial_capacity = 64; record_stats = true }

type entry = {
  mutable key : int;  (* object id; 0 = free-listed record *)
  mutable owner : int;  (* inline owner tid index, 0 = unowned *)
  mutable depth : int;  (* inline nesting depth — a full int, no ceiling *)
  mutable fat : Fatlock.t option;
  mutable refs : int;  (* pins by operations blocked outside the stripe *)
}

type shard = {
  lock : Mutex.t;
  mutable slots : entry option array;  (* length a power of two *)
  mutable mask : int;
  mutable used : int;
  mutable free : entry list;  (* recycled records, capped *)
  mutable free_len : int;
}

type ctx = {
  shards : shard array;
  shard_mask : int;
  config : config;
  stats : Lock_stats.t;
  events : Sink.t;
  tracing : bool;
  created : int Atomic.t;
  evaporated : int Atomic.t;
}

let name = "cjm"

(* Lock-state events are stamped by whoever holds the object (see
   [Tl_events.Sink]): the stripe holder for inline and lifecycle
   events — the stripe serialises every inline transition and every
   monitor creation and evaporation — and the monitor owner for
   fat-path events, which may run outside the stripe. *)
let[@inline] emit ctx ~tid kind ~arg = Sink.emit ctx.events ~tid ~kind ~arg
let[@inline] my_index (env : Runtime.env) = env.descriptor.Tid.index

(* {1 The table} *)

(* Fibonacci scramble: object ids are dense and sequential, so spread
   them before slicing bits.  Slot index uses the low bits, shard
   index a disjoint higher range, so the two stay decorrelated. *)
let[@inline] mix id = id * 0x9E3779B9

let[@inline] shard_for ctx id = ctx.shards.((mix id lsr 20) land ctx.shard_mask)
let[@inline] slot_base sh key = mix key land sh.mask

(* Slot index of [key], or -1.  The load factor is kept at or below
   1/2 by [grow], so a [None] always terminates the probe. *)
let find_index sh key =
  let i = ref (slot_base sh key) in
  let res = ref (-1) in
  (try
     while true do
       match sh.slots.(!i) with
       | None -> raise Exit
       | Some e when e.key = key ->
           res := !i;
           raise Exit
       | Some _ -> i := (!i + 1) land sh.mask
     done
   with Exit -> ());
  !res

let insert_entry sh e =
  let i = ref (slot_base sh e.key) in
  while sh.slots.(!i) <> None do
    i := (!i + 1) land sh.mask
  done;
  sh.slots.(!i) <- Some e

let grow sh =
  let old = sh.slots in
  let cap = 2 * (sh.mask + 1) in
  sh.slots <- Array.make cap None;
  sh.mask <- cap - 1;
  Array.iter (function None -> () | Some e -> insert_entry sh e) old

let free_list_cap = 64

(* Backward-shift deletion: close the hole by walking the cluster and
   pulling back any element whose probe path crosses the hole.  No
   tombstones, so a probe sequence never decays no matter how many
   create/evaporate cycles churn through the slot (the Index_table
   lesson: 2^23 cycles must leave the table as fast as minute one). *)
let remove_at sh i0 =
  (match sh.slots.(i0) with
  | Some e ->
      if sh.free_len < free_list_cap then begin
        e.key <- 0;
        e.fat <- None;
        sh.free <- e :: sh.free;
        sh.free_len <- sh.free_len + 1
      end
  | None -> ());
  sh.slots.(i0) <- None;
  sh.used <- sh.used - 1;
  let hole = ref i0 in
  let j = ref ((i0 + 1) land sh.mask) in
  let continue = ref true in
  while !continue do
    match sh.slots.(!j) with
    | None -> continue := false
    | Some f ->
        let base = slot_base sh f.key in
        (* movable iff the hole lies on f's probe path [base .. j] *)
        if (!hole - base) land sh.mask <= (!j - base) land sh.mask then begin
          sh.slots.(!hole) <- sh.slots.(!j);
          sh.slots.(!j) <- None;
          hole := !j
        end;
        j := (!j + 1) land sh.mask
  done

(* Stripe held.  Returns the entry for [key], creating an empty one
   (unowned, no monitor, unpinned) if absent. *)
let find_or_create sh key =
  let i = find_index sh key in
  if i >= 0 then Option.get sh.slots.(i)
  else begin
    if 2 * (sh.used + 1) > sh.mask + 1 then grow sh;
    let e =
      match sh.free with
      | e :: rest ->
          sh.free <- rest;
          sh.free_len <- sh.free_len - 1;
          e
      | [] -> { key = 0; owner = 0; depth = 0; fat = None; refs = 0 }
    in
    e.key <- key;
    e.owner <- 0;
    e.depth <- 0;
    e.fat <- None;
    e.refs <- 0;
    insert_entry sh e;
    sh.used <- sh.used + 1;
    e
  end

(* {1 Construction} *)

let pow2_at_least n =
  let r = ref 1 in
  while !r < n do
    r := !r lsl 1
  done;
  !r

let live_entries ctx =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.lock;
      let n = sh.used in
      Mutex.unlock sh.lock;
      acc + n)
    0 ctx.shards

let monitors_created ctx = Atomic.get ctx.created
let monitors_evaporated ctx = Atomic.get ctx.evaporated

let create_with ?(config = default_config) ?(events = Sink.disabled)
    (_runtime : Runtime.t) =
  if config.shards < 1 then invalid_arg "Cjm.create_with: shards must be >= 1";
  if config.initial_capacity < 1 then
    invalid_arg "Cjm.create_with: initial_capacity must be >= 1";
  let nshards = pow2_at_least config.shards in
  let cap = pow2_at_least (max 8 config.initial_capacity) in
  let ctx =
    {
      shards =
        Array.init nshards (fun _ ->
            {
              lock = Mutex.create ();
              slots = Array.make cap None;
              mask = cap - 1;
              used = 0;
              free = [];
              free_len = 0;
            });
      shard_mask = nshards - 1;
      config;
      stats = Lock_stats.create ();
      events;
      tracing = Sink.enabled events;
      created = Atomic.make 0;
      evaporated = Atomic.make 0;
    }
  in
  Lock_stats.register_gauge ctx.stats "cjm.entries.live" (fun () ->
      live_entries ctx);
  Lock_stats.register_gauge ctx.stats "cjm.monitors.live" (fun () ->
      Atomic.get ctx.created - Atomic.get ctx.evaporated);
  ctx

let create runtime = create_with runtime
let stats ctx = ctx.stats

(* {1 Monitor lifecycle} *)

(* Stripe held, [refs = 0], [i] the entry's slot.  Remove the entry if
   nothing keeps it alive: an idle monitor evaporates (the CJM
   deflation — no handshake, the unpinning mutator just deletes), and
   a monitor-less unowned entry vanishes silently.  [refs = 0] means
   no entrant is queued and no waiter is parked (both hold pins), so
   [is_idle] only guards the instant between a releaser's unlock and
   its evaporation check. *)
let evaporate_if_idle ctx env sh i =
  match sh.slots.(i) with
  | Some ({ fat = Some fat; _ } as e) when Fatlock.is_idle fat ->
      let id = e.key in
      remove_at sh i;
      Atomic.incr ctx.evaporated;
      if ctx.config.record_stats then Lock_stats.record_deflation ctx.stats;
      if ctx.tracing then
        emit ctx ~tid:(my_index env) Ev.Cjm_monitor_evaporate ~arg:id
  | Some { fat = None; owner = 0; _ } -> remove_at sh i
  | Some _ | None -> ()

(* Drop a pin taken for a blocking operation; last one out sweeps. *)
let unpin ctx env sh id (entry : entry) =
  Mutex.lock sh.lock;
  entry.refs <- entry.refs - 1;
  if entry.refs = 0 then begin
    let i = find_index sh id in
    if i >= 0 then evaporate_if_idle ctx env sh i
  end;
  Mutex.unlock sh.lock

(* Stripe held; the caller has already pinned [entry].  Materialise a
   monitor born owned by the inline owner, transferring its depth. *)
let inflate_locked ctx env (entry : entry) ~cause =
  let fat =
    Fatlock.create_locked ~tag:entry.key ~events:ctx.events ~owner:entry.owner
      ~count:entry.depth ()
  in
  entry.fat <- Some fat;
  entry.owner <- 0;
  entry.depth <- 0;
  Atomic.incr ctx.created;
  if ctx.config.record_stats then Lock_stats.record_inflation ctx.stats ~tid:(my_index env) cause;
  if ctx.tracing then
    emit ctx ~tid:(my_index env) Ev.Cjm_monitor_create ~arg:entry.key;
  fat

(* {1 Operations} *)

(* Blocking entry to a live monitor; the pin was taken under the
   stripe.  The monitor never retires (evaporation requires [refs =
   0], and we hold a pin), so no retirement retry loop is needed. *)
let fat_acquire ctx env obj sh (entry : entry) fat =
  let queued = not (Fatlock.try_acquire env fat) in
  if queued then Fatlock.acquire env fat;
  let depth = Fatlock.count fat in
  if ctx.config.record_stats then
    Lock_stats.record_acquire_fat ctx.stats ~tid:(my_index env) obj ~queued ~depth;
  if ctx.tracing then
    emit ctx ~tid:(my_index env)
      (if queued then Ev.Acquire_fat_queued else Ev.Acquire_fat)
      ~arg:(Obj_model.id obj);
  (* We own the monitor, so this unpin never evaporates it. *)
  unpin ctx env sh (Obj_model.id obj) entry

let acquire ctx env obj =
  let id = Obj_model.id obj in
  let sh = shard_for ctx id in
  let me = my_index env in
  Mutex.lock sh.lock;
  let entry = find_or_create sh id in
  match entry.fat with
  | None when entry.owner = 0 ->
      (* The hash-lock claim: owning the entry is owning the lock. *)
      entry.owner <- me;
      entry.depth <- 1;
      if ctx.tracing then emit ctx ~tid:me Ev.Acquire_fast ~arg:id;
      Mutex.unlock sh.lock;
      if ctx.config.record_stats then
        Lock_stats.record_acquire_unlocked ctx.stats ~tid:me obj
  | None when entry.owner = me ->
      entry.depth <- entry.depth + 1;
      let depth = entry.depth in
      if ctx.tracing then emit ctx ~tid:me Ev.Acquire_nested ~arg:id;
      Mutex.unlock sh.lock;
      if ctx.config.record_stats then
        Lock_stats.record_acquire_nested ctx.stats ~tid:me ~depth
  | None ->
      (* Contended inline entry: the *contender* inflates (unlike thin
         locks, where only the owner can — there is no header word to
         race on, the stripe serialises us against the owner). *)
      entry.refs <- entry.refs + 1;
      let fat = inflate_locked ctx env entry ~cause:`Contention in
      Mutex.unlock sh.lock;
      fat_acquire ctx env obj sh entry fat
  | Some fat ->
      entry.refs <- entry.refs + 1;
      Mutex.unlock sh.lock;
      fat_acquire ctx env obj sh entry fat

let not_owner op =
  raise
    (Fatlock.Illegal_monitor_state
       (Printf.sprintf "cjm: %s by a thread that does not hold the lock" op))

let release ctx env obj =
  let id = Obj_model.id obj in
  let sh = shard_for ctx id in
  let me = my_index env in
  Mutex.lock sh.lock;
  let i = find_index sh id in
  if i < 0 then begin
    Mutex.unlock sh.lock;
    not_owner "release"
  end;
  let entry = Option.get sh.slots.(i) in
  match entry.fat with
  | None ->
      if entry.owner <> me then begin
        Mutex.unlock sh.lock;
        not_owner "release"
      end;
      if entry.depth > 1 then begin
        if ctx.tracing then emit ctx ~tid:me Ev.Release_nested ~arg:id;
        entry.depth <- entry.depth - 1;
        Mutex.unlock sh.lock;
        if ctx.config.record_stats then Lock_stats.record_release ctx.stats ~tid:me `Nested
      end
      else begin
        if ctx.tracing then emit ctx ~tid:me Ev.Release_fast ~arg:id;
        entry.owner <- 0;
        entry.depth <- 0;
        (* monitor-less and unowned: the entry evaporates with the
           lock unless a contender has pinned it mid-inflation *)
        if entry.refs = 0 then remove_at sh i;
        Mutex.unlock sh.lock;
        if ctx.config.record_stats then Lock_stats.record_release ctx.stats ~tid:me `Fast
      end
  | Some fat ->
      (* Stamped before the monitor changes hands: a pinned entrant
         takes it outside the stripe.  A release by a non-owner raises
         below, after its event: the oracle flags it. *)
      if ctx.tracing then emit ctx ~tid:me Ev.Release_fat ~arg:id;
      (match Fatlock.release env fat with
      | () -> ()
      | exception e ->
          Mutex.unlock sh.lock;
          raise e);
      if entry.refs = 0 then evaporate_if_idle ctx env sh i;
      Mutex.unlock sh.lock;
      if ctx.config.record_stats then Lock_stats.record_release ctx.stats ~tid:me `Fat

let wait ?timeout ctx env obj =
  let id = Obj_model.id obj in
  let sh = shard_for ctx id in
  let me = my_index env in
  Mutex.lock sh.lock;
  let i = find_index sh id in
  if i < 0 then begin
    Mutex.unlock sh.lock;
    not_owner "wait"
  end;
  let entry = Option.get sh.slots.(i) in
  let fat =
    match entry.fat with
    | Some fat ->
        entry.refs <- entry.refs + 1;
        fat
    | None ->
        if entry.owner <> me then begin
          Mutex.unlock sh.lock;
          not_owner "wait"
        end;
        (* wait() on an inline lock: the owner inflates first, exactly
           as thin locks do for a wait on a thin word (§2.3). *)
        entry.refs <- entry.refs + 1;
        inflate_locked ctx env entry ~cause:`Wait
  in
  Mutex.unlock sh.lock;
  if ctx.config.record_stats then Lock_stats.record_wait ctx.stats ~tid:me;
  if ctx.tracing then emit ctx ~tid:me Ev.Wait_op ~arg:id;
  (match Fatlock.wait ?timeout env fat with
  | () -> ()
  | exception e ->
      unpin ctx env sh id entry;
      raise e);
  (* We re-own the monitor here, so this unpin never evaporates it. *)
  unpin ctx env sh id entry

let notify_common ctx env obj ~all =
  let id = Obj_model.id obj in
  let sh = shard_for ctx id in
  let me = my_index env in
  let op = if all then "notifyAll" else "notify" in
  Mutex.lock sh.lock;
  let i = find_index sh id in
  if i < 0 then begin
    Mutex.unlock sh.lock;
    not_owner op
  end;
  let entry = Option.get sh.slots.(i) in
  (match entry.fat with
  | None ->
      (* Inline lock held by me: no thread can possibly be waiting. *)
      if entry.owner <> me then begin
        Mutex.unlock sh.lock;
        not_owner op
      end
  | Some fat -> (
      match if all then Fatlock.notify_all env fat else Fatlock.notify env fat with
      | () -> ()
      | exception e ->
          Mutex.unlock sh.lock;
          raise e));
  if ctx.tracing then
    emit ctx ~tid:me (if all then Ev.Notify_all_op else Ev.Notify_op) ~arg:id;
  Mutex.unlock sh.lock;
  if ctx.config.record_stats then
    if all then Lock_stats.record_notify_all ctx.stats ~tid:me
    else Lock_stats.record_notify ctx.stats ~tid:me

let notify ctx env obj = notify_common ctx env obj ~all:false
let notify_all ctx env obj = notify_common ctx env obj ~all:true

let holds ctx env obj =
  let id = Obj_model.id obj in
  let sh = shard_for ctx id in
  Mutex.lock sh.lock;
  let held =
    let i = find_index sh id in
    if i < 0 then false
    else
      match Option.get sh.slots.(i) with
      | { fat = Some fat; _ } -> Fatlock.holds env fat
      | { owner; _ } -> owner = my_index env
  in
  Mutex.unlock sh.lock;
  held
