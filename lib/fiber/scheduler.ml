(* The M:N fiber scheduler: effects-based fibers multiplexed over a
   fixed pool of domains.

   Each carrier domain owns one worker: a Chase–Lev deque (spawns and
   wakeups; stealable by the other workers) plus a private FIFO queue
   (yields and deque overflow — owner-only, so a plain Queue).  The
   split matters: a fiber that yields inside a critical section must go
   to the *back* of its worker's line, or the LIFO deque would pop the
   yielder straight back and the contenders behind it would starve.
   Cross-thread wakeups — an unpark arriving from an OS thread or from
   a worker of a different scheduler — land in a shared mutex-protected
   injector that every worker polls.

   A fiber is a [Effect.Deep.match_with] activation.  It suspends by
   performing one of two effects:

   - [Yield]: the continuation goes to the back of the current
     worker's FIFO;
   - [Suspend register]: the handler wraps the continuation in a
     [resume : bool -> unit] closure and hands it to [register], which
     typically installs it in a {!Blocker}.  Whoever unparks the
     blocker gets the closure back and calls it — from any thread, on
     any domain; [resume] routes the continuation to the local deque
     when the caller is a worker of this scheduler and to the injector
     otherwise.  The bool distinguishes wakeup ([true]) from timeout
     ([false]).

   The [Parker] built from these two primitives is what the locking
   layers see: [Thin]'s contended path and [Fatlock]'s queues park and
   unpark fibers without knowing they are not OS threads, which is the
   whole point of the seam.

   Tid leasing: every fiber leases a 15-bit index from the runtime for
   its lifetime and releases it on exit, so the live-fiber count is
   bounded only by memory while the lock-word namespace stays 15 bits.
   When all indices are leased, the spawning fiber takes the overflow
   path: it enqueues its blocker on [tid_waiters] *under the same
   mutex as the failed lease attempt* (closing the lost-wakeup window
   against a concurrent release), emits a [Tid_overflow] event on the
   system stream, and suspends until the runtime's index-released hook
   pops and unparks it.  No fiber ever observes [Tid.Exhausted]. *)

open Tl_runtime

type task = unit -> unit

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : ((bool -> unit) -> unit) -> bool Effect.t

(* The mutable fields are guarded by the scheduler's [join_mutex]. *)
type fiber = {
  f_name : string;
  mutable f_result : (unit, exn) result option;
  mutable f_waiters : Blocker.t list; (* fiber-context joiners *)
  mutable f_claimed : bool; (* some joiner consumed the result *)
}

type worker = {
  w_id : int;
  w_sched : t;
  w_deque : task Ws_deque.t;
  w_local : task Queue.t; (* owner-only FIFO: yields + deque overflow *)
  mutable w_thread : int; (* Thread.id of the carrier, set at loop entry *)
  mutable w_tick : int;
  mutable w_rr : int; (* steal round-robin cursor *)
  (* owner-only counts, summed when [run] ends *)
  mutable w_dispatches : int;
  mutable w_yields : int;
  mutable w_suspends : int;
}

and t = {
  runtime : Runtime.t;
  mutable workers : worker array;
  injector : task Queue.t;
  inj_mutex : Mutex.t;
  mutable timers : (float * Blocker.t * (bool -> unit)) list; (* sorted *)
  timer_mutex : Mutex.t;
  next_deadline : float Atomic.t;
  live : int Atomic.t; (* spawned minus finished fibers *)
  finished : bool Atomic.t; (* live hit zero: workers drain out *)
  tid_waiters : Blocker.t Queue.t; (* fibers waiting out lease overflow *)
  tid_mutex : Mutex.t;
  overflow_count : int Atomic.t;
  mutable strays : (fiber * exn) list; (* failed, possibly unjoined *)
  stray_mutex : Mutex.t;
  join_mutex : Mutex.t; (* guards every fiber's join fields *)
  join_cond : Condition.t; (* for OS-thread joiners *)
}

type counts = { dispatches : int; yields : int; suspends : int }

let deque_capacity = 8192

(* Carrier identification.  DLS is per *domain* and systhreads share
   their domain's slots, so a Thread_backend thread colocated with a
   worker would see the worker's record; the thread-id check rejects
   it.  A non-worker context (plain thread, or a worker of another
   scheduler — compared by the caller) gets [None]. *)
let dls_key : worker option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_worker () =
  match Domain.DLS.get dls_key with
  | Some w when w.w_thread = Thread.id (Thread.self ()) -> Some w
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Task routing.                                                      *)
(* ------------------------------------------------------------------ *)

let inject sched task =
  Mutex.lock sched.inj_mutex;
  Queue.push task sched.injector;
  Mutex.unlock sched.inj_mutex

(* Spawns and wakeups: hot end of the local deque when on a worker of
   this scheduler, injector otherwise. *)
let schedule sched task =
  match current_worker () with
  | Some w when w.w_sched == sched -> (
      try Ws_deque.push w.w_deque task
      with Ws_deque.Full -> Queue.push task w.w_local)
  | _ -> inject sched task

(* Yields: back of the FIFO, never the deque (see header). *)
let schedule_yield sched task =
  match current_worker () with
  | Some w when w.w_sched == sched ->
      w.w_yields <- w.w_yields + 1;
      Queue.push task w.w_local
  | _ -> inject sched task

let pop_injector sched =
  Mutex.lock sched.inj_mutex;
  let r =
    if Queue.is_empty sched.injector then None
    else Some (Queue.pop sched.injector)
  in
  Mutex.unlock sched.inj_mutex;
  r

let try_steal sched w =
  let n = Array.length sched.workers in
  if n <= 1 then None
  else begin
    let found = ref None in
    let attempts = ref 4 in
    let retry = ref true in
    while !found = None && !retry && !attempts > 0 do
      retry := false;
      decr attempts;
      let i = ref 0 in
      while !found = None && !i < n do
        let v = (w.w_rr + !i) mod n in
        (if v <> w.w_id then
           match Ws_deque.steal sched.workers.(v).w_deque with
           | `Stolen task ->
               found := Some task;
               w.w_rr <- v
           | `Retry -> retry := true
           | `Empty -> ());
        incr i
      done
    done;
    !found
  end

(* ------------------------------------------------------------------ *)
(* Timers (timed parks).                                              *)
(* ------------------------------------------------------------------ *)

let add_timer sched deadline blocker waker =
  Mutex.lock sched.timer_mutex;
  let rec ins = function
    | [] -> [ (deadline, blocker, waker) ]
    | (d, _, _) :: _ as l when deadline < d -> (deadline, blocker, waker) :: l
    | e :: tl -> e :: ins tl
  in
  sched.timers <- ins sched.timers;
  (match sched.timers with
  | (d, _, _) :: _ -> Atomic.set sched.next_deadline d
  | [] -> ());
  Mutex.unlock sched.timer_mutex

let run_timers sched =
  let now = Unix.gettimeofday () in
  if now >= Atomic.get sched.next_deadline then begin
    Mutex.lock sched.timer_mutex;
    let expired, rest = List.partition (fun (d, _, _) -> d <= now) sched.timers in
    sched.timers <- rest;
    Atomic.set sched.next_deadline
      (match rest with [] -> infinity | (d, _, _) :: _ -> d);
    Mutex.unlock sched.timer_mutex;
    (* [cancel] compares the exact waker closure, so an entry whose
       park was already released by a real unpark (or whose blocker has
       since re-parked a different waker) fails the CAS and expires
       harmlessly. *)
    List.iter
      (fun (_, b, w) -> if Blocker.cancel b w then w false)
      expired
  end

(* ------------------------------------------------------------------ *)
(* Suspension primitives (fiber context only).                        *)
(* ------------------------------------------------------------------ *)

let park_on blocker =
  if not (Blocker.try_consume blocker) then
    ignore
      (Effect.perform
         (Suspend
            (fun resume ->
              (* [install] returning false means an unpark raced in
                 between the consume check and here: the permit is
                 absorbed and we resume ourselves immediately. *)
              if not (Blocker.install blocker resume) then resume true))
        : bool)

let park_timeout_on sched blocker seconds =
  if Blocker.try_consume blocker then true
  else
    Effect.perform
      (Suspend
         (fun resume ->
           if Blocker.install blocker resume then
             add_timer sched (Unix.gettimeofday () +. seconds) blocker resume
           else resume true))

let fiber_parker sched blocker =
  Parker.make
    ~park:(fun () -> park_on blocker)
    ~park_timeout:(fun ~seconds -> park_timeout_on sched blocker seconds)
    ~unpark:(fun () ->
      match Blocker.unpark blocker with Some w -> w true | None -> ())
    ~has_permit:(fun () -> Blocker.has_permit blocker)
    ~yield:(fun () -> Effect.perform Yield)

(* ------------------------------------------------------------------ *)
(* Tid leasing with the overflow path.                                *)
(* ------------------------------------------------------------------ *)

let rec acquire_env sched name parker blocker =
  Mutex.lock sched.tid_mutex;
  match Runtime.try_register ~parker sched.runtime ~name with
  | Some env ->
      Mutex.unlock sched.tid_mutex;
      env
  | None ->
      (* Enqueue before unlocking: a release that lands after our
         failed lease necessarily sees us in the queue and wakes us
         (at worst it banks a permit the park below consumes). *)
      Queue.push blocker sched.tid_waiters;
      Mutex.unlock sched.tid_mutex;
      let n = 1 + Atomic.fetch_and_add sched.overflow_count 1 in
      let sink = Runtime.event_sink sched.runtime in
      if Tl_events.Sink.enabled sink then
        Tl_events.Sink.emit_system sink ~kind:Tl_events.Event.Tid_overflow
          ~arg:n;
      Parker.park parker;
      acquire_env sched name parker blocker

(* Runtime index-released hook: wake one lease waiter per release. *)
let on_released sched () =
  Mutex.lock sched.tid_mutex;
  let waiter =
    if Queue.is_empty sched.tid_waiters then None
    else Some (Queue.pop sched.tid_waiters)
  in
  Mutex.unlock sched.tid_mutex;
  match waiter with
  | Some b -> ( match Blocker.unpark b with Some w -> w true | None -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Fiber lifecycle.                                                   *)
(* ------------------------------------------------------------------ *)

let finish sched fb result =
  Mutex.lock sched.join_mutex;
  fb.f_result <- Some result;
  let waiters = fb.f_waiters in
  fb.f_waiters <- [];
  Condition.broadcast sched.join_cond;
  Mutex.unlock sched.join_mutex;
  List.iter
    (fun b -> match Blocker.unpark b with Some w -> w true | None -> ())
    waiters;
  (match result with
  | Error e ->
      Mutex.lock sched.stray_mutex;
      sched.strays <- (fb, e) :: sched.strays;
      Mutex.unlock sched.stray_mutex
  | Ok () -> ());
  if Atomic.fetch_and_add sched.live (-1) = 1 then
    Atomic.set sched.finished true

let handler sched fb =
  {
    Effect.Deep.retc = (fun () -> finish sched fb (Ok ()));
    exnc = (fun e -> finish sched fb (Error e));
    effc =
      (fun (type c) (eff : c Effect.t) ->
        match eff with
        | Yield ->
            Some
              (fun (k : (c, unit) Effect.Deep.continuation) ->
                schedule_yield sched (fun () -> Effect.Deep.continue k ()))
        | Suspend register ->
            Some
              (fun (k : (c, unit) Effect.Deep.continuation) ->
                (match current_worker () with
                | Some w -> w.w_suspends <- w.w_suspends + 1
                | None -> ());
                (* The resume closure may be invoked from any thread —
                   [schedule] routes it appropriately at call time.
                   The blocker/cancel protocol guarantees it runs at
                   most once, matching the one-shot continuation. *)
                register (fun v ->
                    schedule sched (fun () -> Effect.Deep.continue k v)))
        | _ -> None);
  }

let start_fiber sched fb f =
  Effect.Deep.match_with
    (fun () ->
      let blocker = Blocker.create () in
      let parker = fiber_parker sched blocker in
      let env = acquire_env sched fb.f_name parker blocker in
      Fun.protect
        ~finally:(fun () -> Runtime.unregister env)
        (fun () -> f env))
    () (handler sched fb)

let rec join_fiber sched fb =
  match current_worker () with
  | Some w when w.w_sched == sched -> (
      Mutex.lock sched.join_mutex;
      match fb.f_result with
      | Some r -> (
          fb.f_claimed <- true;
          Mutex.unlock sched.join_mutex;
          match r with Ok () -> () | Error e -> raise e)
      | None ->
          let b = Blocker.create () in
          fb.f_waiters <- b :: fb.f_waiters;
          Mutex.unlock sched.join_mutex;
          park_on b;
          join_fiber sched fb)
  | _ -> (
      (* OS-thread joiner (e.g. [Runtime.join] called after [run]
         returned, or from a thread outside the scheduler). *)
      Mutex.lock sched.join_mutex;
      while fb.f_result = None do
        Condition.wait sched.join_cond sched.join_mutex
      done;
      let r = match fb.f_result with Some r -> r | None -> assert false in
      fb.f_claimed <- true;
      Mutex.unlock sched.join_mutex;
      match r with Ok () -> () | Error e -> raise e)

let spawn_fiber sched name f =
  let fb = { f_name = name; f_result = None; f_waiters = []; f_claimed = false } in
  Atomic.incr sched.live;
  schedule sched (fun () -> start_fiber sched fb f);
  fun () -> join_fiber sched fb

(* ------------------------------------------------------------------ *)
(* Workers.                                                           *)
(* ------------------------------------------------------------------ *)

(* Deque before FIFO: a yielded fiber waits until the deque's spawns
   and wakeups have had a turn ("back of the line"), otherwise a lock
   holder that yields inside its critical section would bounce straight
   back and monopolise the carrier while every contender starves in the
   deque.  The FIFO still drains fairly among yielders once the deque
   is empty. *)
let local_or_deque w =
  match Ws_deque.pop w.w_deque with
  | Some _ as r -> r
  | None ->
      if Queue.is_empty w.w_local then None else Some (Queue.pop w.w_local)

let next_task sched w =
  w.w_tick <- w.w_tick + 1;
  if w.w_tick land 63 = 0 then
    (* Periodically drain the injector even under local load, so
       cross-thread wakeups cannot starve behind a busy deque. *)
    match pop_injector sched with
    | Some _ as r -> r
    | None -> local_or_deque w
  else local_or_deque w

let worker_loop sched w =
  w.w_thread <- Thread.id (Thread.self ());
  Domain.DLS.set dls_key (Some w);
  let idle = ref 0 in
  let nap = ref 2e-5 in
  let dispatch task =
    idle := 0;
    nap := 2e-5;
    w.w_dispatches <- w.w_dispatches + 1;
    task ()
  in
  while not (Atomic.get sched.finished) do
    if w.w_tick land 15 = 0 then run_timers sched;
    match next_task sched w with
    | Some task -> dispatch task
    | None -> (
        match pop_injector sched with
        | Some task -> dispatch task
        | None -> (
            match try_steal sched w with
            | Some task -> dispatch task
            | None ->
                run_timers sched;
                incr idle;
                if !idle < 64 then Domain.cpu_relax ()
                else if !idle < 128 then Thread.yield ()
                else begin
                  (* Escalating sleep, clamped so a pending timer is
                     never overslept by more than one slice. *)
                  let bound =
                    let d = Atomic.get sched.next_deadline in
                    if d = infinity then !nap
                    else
                      Float.max 1e-6
                        (Float.min !nap (d -. Unix.gettimeofday ()))
                  in
                  Unix.sleepf bound;
                  nap := Float.min 1e-3 (!nap *. 2.0)
                end))
  done;
  Domain.DLS.set dls_key None

(* ------------------------------------------------------------------ *)
(* Entry points.                                                      *)
(* ------------------------------------------------------------------ *)

let create_sched runtime n =
  let sched =
    {
      runtime;
      workers = [||];
      injector = Queue.create ();
      inj_mutex = Mutex.create ();
      timers = [];
      timer_mutex = Mutex.create ();
      next_deadline = Atomic.make infinity;
      live = Atomic.make 0;
      finished = Atomic.make false;
      tid_waiters = Queue.create ();
      tid_mutex = Mutex.create ();
      overflow_count = Atomic.make 0;
      strays = [];
      stray_mutex = Mutex.create ();
      join_mutex = Mutex.create ();
      join_cond = Condition.create ();
    }
  in
  sched.workers <-
    Array.init n (fun i ->
        {
          w_id = i;
          w_sched = sched;
          w_deque = Ws_deque.create ~capacity:deque_capacity;
          w_local = Queue.create ();
          w_thread = -1;
          w_tick = 0;
          w_rr = (i + 1) mod max n 1;
          w_dispatches = 0;
          w_yields = 0;
          w_suspends = 0;
        });
  sched

let check_strays sched =
  match
    List.filter (fun (fb, _) -> not fb.f_claimed) (List.rev sched.strays)
  with
  | [] -> ()
  | (_, e) :: _ -> raise e

(* Read after every worker has left its loop (the other carriers are
   joined), so the plain per-worker counts are final and visible. *)
let counts_of sched =
  Array.fold_left
    (fun c w ->
      {
        dispatches = c.dispatches + w.w_dispatches;
        yields = c.yields + w.w_yields;
        suspends = c.suspends + w.w_suspends;
      })
    { dispatches = 0; yields = 0; suspends = 0 }
    sched.workers

let run_counted ?(domains = 1) runtime main =
  if domains < 1 then invalid_arg "Fiber.Scheduler.run: domains";
  let sched = create_sched runtime domains in
  Runtime.set_fiber_spawner runtime (Some (fun name f -> spawn_fiber sched name f));
  Runtime.set_index_released_hook runtime (Some (on_released sched));
  Fun.protect
    ~finally:(fun () ->
      Runtime.set_fiber_spawner runtime None;
      Runtime.set_index_released_hook runtime None)
    (fun () ->
      let result = ref None in
      let join_main =
        spawn_fiber sched "fiber-main" (fun env -> result := Some (main env))
      in
      let others =
        Array.init (domains - 1) (fun i ->
            Domain.spawn (fun () -> worker_loop sched sched.workers.(i + 1)))
      in
      worker_loop sched sched.workers.(0);
      Array.iter Domain.join others;
      join_main ();
      check_strays sched;
      match !result with
      | Some v -> (v, counts_of sched)
      | None -> failwith "Fiber.Scheduler.run: main fiber did not complete")

let run ?domains runtime main = fst (run_counted ?domains runtime main)

let yield () = Effect.perform Yield

let sleep seconds =
  if seconds <= 0.0 then yield ()
  else
    match current_worker () with
    | Some w ->
        let b = Blocker.create () in
        ignore (park_timeout_on w.w_sched b seconds : bool)
    | None -> Unix.sleepf seconds

let spawn ?(name = "fiber") f =
  match current_worker () with
  | Some w -> spawn_fiber w.w_sched name f
  | None -> invalid_arg "Fiber.Scheduler.spawn: not in fiber context"

let overflow_waits () =
  match current_worker () with
  | Some w -> Atomic.get w.w_sched.overflow_count
  | None -> 0

