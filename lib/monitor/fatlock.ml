open Tl_runtime

exception Illegal_monitor_state of string

type backend = Parker | Hapax

let backend_name = function Parker -> "parker" | Hapax -> "hapax"

let all_backends = [ Parker; Hapax ]

type entry = Entry_immediate | Entry_spun | Entry_parked

let entry_queued = function Entry_immediate -> false | Entry_spun | Entry_parked -> true

(* A waiter record travels from the wait set (or entry queue) to its
   thread.  [notified] tells a timed waiter whether it lost the race
   between timing out and being notified.  [in_queue] tracks entry-
   queue membership under the latch: because a thread's parker permit
   is shared across monitors, a park can return on a stale permit, and
   the waiter must know whether its record is still queued before
   re-queuing — otherwise a phantom record would absorb a future
   wakeup and strand another entrant. *)
type waiter = { env : Runtime.env; mutable notified : bool; mutable in_queue : bool }

type t = {
  latch : Spinlock.t; (* protects every mutable field below *)
  mutable owner : int; (* thread index, 0 = unowned *)
  mutable count : int; (* number of locks held by [owner] *)
  entry_queue : waiter Queue.t; (* Parker backend only *)
  wait_set : waiter Queue.t;
  mutable retired : bool;
      (* set (under the latch, while idle) by a deflater that won the
         lock-word handshake; sticky — a retired monitor is never
         resurrected, its object gets a fresh one on re-inflation *)
  mutable in_flight : int;
      (* waiters removed from the wait set (notify/timeout) but not yet
         re-entered: they are invisible to both queues, so this count is
         what stops [retire_if_idle] from deflating out from under
         them *)
  mutable contended_episodes : int; (* entrants that had to queue, ever *)
  mutable idle_scans : int; (* consecutive reaper scans that saw it idle *)
  tag : int;
      (* caller-chosen identity (the thin scheme stores the object id)
         carried so deflaters and event traces can name the object a
         monitor served without holding the object itself *)
  events : Tl_events.Sink.t; (* trace sink; Sink.disabled when untraced *)
  admission : Hapax.t option;
      (* Some for the Hapax backend: the FIFO ticket engine the
         contended path runs through instead of the entry queue *)
}

let create ?(backend = Parker) () =
  {
    latch = Spinlock.create ();
    owner = 0;
    count = 0;
    entry_queue = Queue.create ();
    wait_set = Queue.create ();
    retired = false;
    in_flight = 0;
    contended_episodes = 0;
    idle_scans = 0;
    tag = 0;
    events = Tl_events.Sink.disabled;
    admission = (match backend with Parker -> None | Hapax -> Some (Hapax.create ()));
  }

let create_locked ?(backend = Parker) ?(tag = 0) ?(events = Tl_events.Sink.disabled) ~owner
    ~count () =
  if owner <= 0 || count < 1 then invalid_arg "Fatlock.create_locked";
  let t = create ~backend () in
  { t with owner; count; tag; events }

let tag t = t.tag

let my_index (env : Runtime.env) = env.descriptor.Tid.index

let not_owner_error t op me =
  Illegal_monitor_state
    (Printf.sprintf "%s: thread %d does not own monitor (owner=%d)" op me t.owner)

let remove_from_queue q w =
  (* Queue has no removal; rebuild without [w].  Queues here are short
     (bounded by thread count). *)
  let keep = Queue.create () in
  Queue.iter (fun x -> if x != w then Queue.push x keep) q;
  Queue.clear q;
  Queue.transfer keep q

(* No ticket waiting, granted or unclaimed (trivially true under
   [Parker]).  Read under the latch by the entry and idleness checks;
   read unlatched, as advice, by the deflation controller, which keeps a
   shard away from eager policies while tickets are in flight. *)
let pipeline_quiet t = match t.admission with None -> true | Some h -> Hapax.pipeline_empty h

(* Can a fresh (ticketless) entrant claim the monitor?  Unowned is not
   enough under an admission backend: while the ticket pipeline is
   non-empty the next granted waiter has an exclusive right to the
   claim, and a barger here would steal it (and strand the FIFO). *)
let fast_claimable t = t.owner = 0 && pipeline_quiet t

let claim_locked t me =
  t.owner <- me;
  t.count <- 1;
  t.idle_scans <- 0

let[@inline] emit_contended t me kind =
  if Tl_events.Sink.enabled t.events then
    Tl_events.Sink.emit t.events ~tid:me ~kind ~arg:t.tag

(* Backoff step budget a queued parker-backend entrant on an OS thread
   burns before its first park — the spin phase that turns a short-hold
   handoff into no park/unpark round trip at all.  A fiber waiter skips
   it: its holder shares the carrier, so every spin step past the first
   two is a full rotation of the run queue that only requeues the
   waiter behind the holder it is waiting for. *)
let spin_before_park_budget = 12

(* Parker-backend contended entry.  Mesa-style with barging for OS
   threads: a released monitor may be grabbed by any arriving thread; a
   woken entrant that loses the race re-queues (at the back).  A fiber
   waiter (cooperative parker) parks at once and is handed the monitor
   by the release that pops it ([release_ownership_locked]): it wakes
   already owning it, so no arrival can barge and the entry queue, not
   the run queue, decides who goes next.  Called with the latch held;
   releases it. *)
let parker_enter env t =
  let me = my_index env in
  let w = { env; notified = false; in_queue = true } in
  Queue.push w t.entry_queue;
  t.contended_episodes <- t.contended_episodes + 1;
  Spinlock.release t.latch;
  emit_contended t me Tl_events.Event.Contended_begin;
  let try_claim () =
    Spinlock.acquire t.latch;
    if t.owner = me && not w.in_queue then begin
      (* handed off by the release that popped us *)
      Spinlock.release t.latch;
      emit_contended t me Tl_events.Event.Contended_end;
      `Claimed
    end
    else if t.retired then begin
      (* Retirement requires an empty entry queue, so our record was
         already popped (by the final release) before the deflater
         could retire — nothing to clean up, and no wakeup is lost:
         the monitor is defunct and the caller retries on the object,
         whose lock word the deflater resets. *)
      Spinlock.release t.latch;
      `Retired
    end
    else if t.owner = 0 then begin
      claim_locked t me;
      if w.in_queue then begin
        (* claimed while still queued (spin win or stale permit) *)
        remove_from_queue t.entry_queue w;
        w.in_queue <- false
      end;
      Spinlock.release t.latch;
      emit_contended t me Tl_events.Event.Contended_end;
      `Claimed
    end
    else begin
      if not w.in_queue then begin
        Queue.push w t.entry_queue;
        w.in_queue <- true
      end;
      Spinlock.release t.latch;
      `Busy
    end
  in
  (* Spin phase (OS threads only): watch the owner field (racy read —
     the latch-guarded claim re-checks) for a bounded budget before
     parking. *)
  let rec spin backoff =
    if Backoff.bounded backoff ~budget:spin_before_park_budget (fun () ->
           t.owner = 0 || t.retired)
    then
      match try_claim () with
      | `Retired -> `Retired
      | `Claimed -> `Acquired Entry_spun
      | `Busy -> spin backoff
    else `Give_up
  in
  let spun =
    if Parker.cooperative env.parker then `Give_up
    else spin (Backoff.create ~policy:Backoff.Yield ~parker:env.parker ())
  in
  match spun with
  | (`Retired | `Acquired _) as r -> r
  | `Give_up ->
      let rec wait_turn () =
        Parker.park env.parker;
        match try_claim () with
        | `Retired -> `Retired
        | `Claimed -> `Acquired Entry_parked
        | `Busy -> wait_turn ()
      in
      wait_turn ()

(* Admission-backend contended entry: take a ticket (constant time,
   under the latch — so a release that finds the pipeline non-empty is
   already obliged to grant it), then wait on the packed word outside
   the latch.  Called with the latch held; releases it. *)
let hapax_enter env t h =
  let me = my_index env in
  let ticket = Hapax.arrive h in
  t.contended_episodes <- t.contended_episodes + 1;
  Spinlock.release t.latch;
  emit_contended t me Tl_events.Event.Contended_begin;
  let how = Hapax.await env h ticket in
  Spinlock.acquire t.latch;
  (* A granted ticket's claim is uncontested: fast path and
     try_acquire refuse while the pipeline is non-empty, at most one
     grant is outstanding, and retirement needs an empty pipeline —
     which our unclaimed ticket forbids. *)
  assert (t.owner = 0 && not t.retired);
  claim_locked t me;
  Hapax.claim h;
  Spinlock.release t.latch;
  emit_contended t me Tl_events.Event.Contended_end;
  `Acquired (match how with `Spun -> Entry_spun | `Parked -> Entry_parked)

(* Entry protocol.  A retired monitor turns entrants away with
   [`Retired] — the caller re-reads the object's lock word, which the
   deflater rewrites to thin-unlocked right after retiring. *)
let acquire_live env t =
  let me = my_index env in
  Spinlock.acquire t.latch;
  if t.retired then begin
    Spinlock.release t.latch;
    `Retired
  end
  else if fast_claimable t then begin
    claim_locked t me;
    Spinlock.release t.latch;
    `Acquired Entry_immediate
  end
  else if t.owner = me then begin
    t.count <- t.count + 1;
    Spinlock.release t.latch;
    `Acquired Entry_immediate
  end
  else
    match t.admission with
    | Some h -> hapax_enter env t h
    | None -> parker_enter env t

let acquire env t =
  match acquire_live env t with
  | `Acquired _ -> ()
  | `Retired ->
      (* Only the thin scheme retires monitors, and it enters through
         [acquire_live]; the baselines' monitors live forever. *)
      raise (Illegal_monitor_state "acquire: monitor was retired (deflated)")

let try_acquire_live env t =
  let me = my_index env in
  Spinlock.acquire t.latch;
  let outcome =
    if t.retired then `Retired
    else if fast_claimable t then begin
      claim_locked t me;
      `Acquired
    end
    else if t.owner = me then begin
      t.count <- t.count + 1;
      `Acquired
    end
    else `Busy
  in
  Spinlock.release t.latch;
  outcome

let try_acquire env t =
  match try_acquire_live env t with `Acquired -> true | `Busy | `Retired -> false

(* Fully release an owned monitor (count already saved by the caller)
   and wake the next entrant, if any.  Must be called with the latch
   held; releases it.  Admission backends grant the oldest pending
   ticket instead of popping the entry queue — exactly one waiter is
   handed the (exclusive) right to claim, so no re-race, no re-queue.
   A popped fiber waiter is handed the monitor itself: it becomes the
   owner here, under the latch, before it is unparked, so the monitor
   is never unowned (nor idle, nor retirable) between this release and
   the waiter's resume.  A popped OS-thread waiter re-competes. *)
let release_ownership_locked t =
  t.owner <- 0;
  t.count <- 0;
  match t.admission with
  | Some h -> (
      match Hapax.admit h with
      | Some ticket ->
          Spinlock.release t.latch;
          Hapax.wake h ticket
      | None -> Spinlock.release t.latch)
  | None -> (
      let next =
        if Queue.is_empty t.entry_queue then None else Some (Queue.pop t.entry_queue)
      in
      (match next with
      | Some w ->
          w.in_queue <- false;
          if Parker.cooperative w.env.parker then claim_locked t (my_index w.env)
      | None -> ());
      Spinlock.release t.latch;
      match next with None -> () | Some w -> Parker.unpark w.env.parker)

let release env t =
  let me = my_index env in
  Spinlock.acquire t.latch;
  if t.owner <> me then begin
    Spinlock.release t.latch;
    raise (not_owner_error t "release" me)
  end;
  if t.count > 1 then begin
    t.count <- t.count - 1;
    Spinlock.release t.latch
  end
  else release_ownership_locked t

let wait ?timeout env t =
  let me = my_index env in
  Spinlock.acquire t.latch;
  if t.owner <> me then begin
    Spinlock.release t.latch;
    raise (not_owner_error t "wait" me)
  end;
  let saved_count = t.count in
  let w = { env; notified = false; in_queue = false } in
  Queue.push w t.wait_set;
  release_ownership_locked t;
  (* Park until notified (or timed out).  A stale permit from an
     earlier episode makes park return early; the [notified] flag
     filters that out. *)
  let rec block () =
    match timeout with
    | None ->
        Parker.park env.parker;
        if not w.notified then block ()
    | Some seconds ->
        let deadline_hit = not (Parker.park_timeout env.parker ~seconds) in
        if (not w.notified) && not deadline_hit then block ()
        else if deadline_hit then begin
          (* Timed out — but a notify may have happened between the
             timeout and this line; removing ourselves under the latch
             resolves the race.  Leaving the wait set on our own makes
             us in-flight (notify bumps the count for the waiters it
             pops). *)
          Spinlock.acquire t.latch;
          if not w.notified then begin
            remove_from_queue t.wait_set w;
            t.in_flight <- t.in_flight + 1
          end;
          Spinlock.release t.latch
        end
  in
  block ();
  (* Between leaving the wait set and re-acquiring we are invisible to
     both queues; the in-flight count (bumped by whoever removed us)
     keeps a concurrent deflater from retiring the monitor out from
     under this re-acquisition, so [acquire] cannot see it retired. *)
  acquire env t;
  (* Restore the saved recursion count. *)
  Spinlock.acquire t.latch;
  t.count <- saved_count;
  t.in_flight <- t.in_flight - 1;
  Spinlock.release t.latch

let notify env t =
  let me = my_index env in
  Spinlock.acquire t.latch;
  if t.owner <> me then begin
    Spinlock.release t.latch;
    raise (not_owner_error t "notify" me)
  end;
  let woken = if Queue.is_empty t.wait_set then None else Some (Queue.pop t.wait_set) in
  (match woken with
  | Some w ->
      w.notified <- true;
      t.in_flight <- t.in_flight + 1
  | None -> ());
  Spinlock.release t.latch;
  match woken with None -> () | Some w -> Parker.unpark w.env.parker

let notify_all env t =
  let me = my_index env in
  Spinlock.acquire t.latch;
  if t.owner <> me then begin
    Spinlock.release t.latch;
    raise (not_owner_error t "notifyAll" me)
  end;
  let woken = Queue.fold (fun acc w -> w :: acc) [] t.wait_set in
  Queue.clear t.wait_set;
  List.iter (fun w -> w.notified <- true) woken;
  t.in_flight <- t.in_flight + List.length woken;
  Spinlock.release t.latch;
  List.iter (fun w -> Parker.unpark w.env.parker) woken

(* The accessors below hold the latch around bodies that cannot raise,
   so a plain acquire/release pair does: no [Fun.protect], no closure. *)
let owner t =
  Spinlock.acquire t.latch;
  let owner = t.owner in
  Spinlock.release t.latch;
  owner

(* Only the owner writes [count] while it holds the monitor (or the
   releaser that hands it over, under the latch, before the new owner's
   own latched claim), so the owner's read needs no latch. *)
let count t = t.count

let entry_queue_length t =
  Spinlock.acquire t.latch;
  let n = match t.admission with Some h -> Hapax.pending_tickets h | None -> Queue.length t.entry_queue in
  Spinlock.release t.latch;
  n

let wait_set_length t =
  Spinlock.acquire t.latch;
  let n = Queue.length t.wait_set in
  Spinlock.release t.latch;
  n

let holds env t =
  Spinlock.acquire t.latch;
  let mine = t.owner = my_index env in
  Spinlock.release t.latch;
  mine

(* Idleness for deflation: unowned, no queued entrant, no waiter, no
   notified/timed-out waiter in flight back to re-acquisition — and,
   under an admission backend, an empty ticket pipeline. *)
let idle_locked t =
  t.owner = 0
  && Queue.is_empty t.entry_queue
  && Queue.is_empty t.wait_set
  && t.in_flight = 0
  && pipeline_quiet t

let is_idle t =
  Spinlock.acquire t.latch;
  let idle = (not t.retired) && idle_locked t in
  Spinlock.release t.latch;
  idle

(* --- lifecycle handshake (non-quiescent deflation) --- *)

let retire_if_idle t =
  Spinlock.acquire t.latch;
  let retire = (not t.retired) && idle_locked t in
  if retire then t.retired <- true;
  Spinlock.release t.latch;
  retire

let is_retired t =
  Spinlock.acquire t.latch;
  let retired = t.retired in
  Spinlock.release t.latch;
  retired

let observe_idle t =
  Spinlock.acquire t.latch;
  t.idle_scans <- (if (not t.retired) && idle_locked t then t.idle_scans + 1 else 0);
  let scans = t.idle_scans in
  Spinlock.release t.latch;
  scans

let contended_episodes t =
  Spinlock.acquire t.latch;
  let n = t.contended_episodes in
  Spinlock.release t.latch;
  n

let idle_scans t =
  Spinlock.acquire t.latch;
  let n = t.idle_scans in
  Spinlock.release t.latch;
  n
