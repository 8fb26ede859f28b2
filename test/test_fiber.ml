(* The fiber runtime: scheduler basics, the Blocker state machine, the
   fiber parker, locks running unchanged on fibers, and the tid-lease
   properties the design leans on — recycling without stream
   misattribution, and overflow-to-wait instead of Exhausted. *)

open Tl_runtime
module Blocker = Tl_fiber.Blocker
module Scheduler = Tl_fiber.Scheduler
module Event = Tl_events.Event
module Sink = Tl_events.Sink
module Oracle = Tl_events.Oracle
module Thin = Tl_core.Thin

let heap = Tl_heap.Heap.create ()
let obj () = Tl_heap.Heap.alloc heap

(* ------------------------------------------------------------------ *)
(* Blocker state machine.                                             *)
(* ------------------------------------------------------------------ *)

let test_blocker_permit () =
  let b = Blocker.create () in
  Alcotest.(check bool) "fresh has no permit" false (Blocker.has_permit b);
  Alcotest.(check bool) "consume empty" false (Blocker.try_consume b);
  (match Blocker.unpark b with
  | None -> ()
  | Some _ -> Alcotest.fail "unpark of empty blocker returned a waker");
  Alcotest.(check bool) "permit banked" true (Blocker.has_permit b);
  (* permits coalesce: a second unpark is absorbed *)
  (match Blocker.unpark b with
  | None -> ()
  | Some _ -> Alcotest.fail "second unpark returned a waker");
  Alcotest.(check bool) "consume banked" true (Blocker.try_consume b);
  Alcotest.(check bool) "consumed once" false (Blocker.try_consume b)

let test_blocker_waker () =
  let b = Blocker.create () in
  let hits = ref [] in
  let w v = hits := v :: !hits in
  Alcotest.(check bool) "install on empty parks" true (Blocker.install b w);
  (match Blocker.unpark b with
  | Some w' -> w' true
  | None -> Alcotest.fail "unpark did not hand back the waker");
  Alcotest.(check (list bool)) "woken once, for real" [ true ] !hits;
  (* cancel of a claimed waker fails *)
  Alcotest.(check bool) "stale cancel" false (Blocker.cancel b w);
  (* install declines when a permit raced in *)
  (match Blocker.unpark b with None -> () | Some _ -> Alcotest.fail "waker?");
  Alcotest.(check bool) "install absorbs permit" false (Blocker.install b w);
  Alcotest.(check bool) "permit gone" false (Blocker.has_permit b)

let test_blocker_cancel () =
  let b = Blocker.create () in
  let w v = ignore v in
  Alcotest.(check bool) "parked" true (Blocker.install b w);
  Alcotest.(check bool) "cancel wins" true (Blocker.cancel b w);
  (match Blocker.unpark b with
  | None -> ()
  | Some _ -> Alcotest.fail "cancelled waker leaked");
  (* the unpark above banked a permit; a re-park absorbs it *)
  Alcotest.(check bool) "re-park sees permit" false (Blocker.install b w)

(* ------------------------------------------------------------------ *)
(* Scheduler basics.                                                  *)
(* ------------------------------------------------------------------ *)

let test_run_returns () =
  let runtime = Runtime.create () in
  let r = Scheduler.run runtime (fun _env -> 41 + 1) in
  Alcotest.(check int) "main result" 42 r

let test_spawn_join_yield () =
  let runtime = Runtime.create () in
  let order =
    Scheduler.run runtime (fun _env ->
        let log = ref [] in
        let note x = log := x :: !log in
        let joins =
          List.map
            (fun i ->
              Scheduler.spawn (fun _env ->
                  note (i * 10);
                  Scheduler.yield ();
                  note ((i * 10) + 1)))
            [ 1; 2 ]
        in
        note 0;
        List.iter (fun j -> j ()) joins;
        note 99;
        List.rev !log)
  in
  (* Deterministic on one domain: main logs 0 and parks in join; the
     deque pops spawns LIFO (fiber 2 first); a yielded continuation
     goes to the back of the local FIFO, which only drains once the
     deque is empty — so both fibers run their first halves before
     either second half. *)
  Alcotest.(check (list int)) "interleaving" [ 0; 20; 10; 21; 11; 99 ] order

let test_fiber_exception_via_join () =
  let runtime = Runtime.create () in
  let got =
    Scheduler.run runtime (fun _env ->
        let j = Scheduler.spawn (fun _env -> failwith "boom") in
        match j () with
        | () -> "no-exn"
        | exception Failure m -> m)
  in
  Alcotest.(check string) "joined exn" "boom" got

let test_stray_exception_reraised () =
  let runtime = Runtime.create () in
  match Scheduler.run runtime (fun _env ->
            ignore (Scheduler.spawn (fun _env -> failwith "stray") : unit -> unit))
  with
  | () -> Alcotest.fail "stray fiber failure was swallowed"
  | exception Failure m -> Alcotest.(check string) "stray" "stray" m

let test_runtime_spawn_backend () =
  let runtime = Runtime.create () in
  (* Without a scheduler the fiber backend refuses. *)
  (match Runtime.spawn ~backend:Runtime.Fiber_backend runtime (fun _ -> ()) with
  | _ -> Alcotest.fail "Fiber_backend spawn succeeded without a scheduler"
  | exception Invalid_argument _ -> ());
  let n = Atomic.make 0 in
  Scheduler.run runtime (fun _env ->
      Runtime.run_parallel ~backend:Runtime.Fiber_backend runtime 8
        (fun _i _env -> Atomic.incr n));
  Alcotest.(check int) "all fibers ran" 8 (Atomic.get n)

let test_sleep_and_timeout () =
  let runtime = Runtime.create () in
  Scheduler.run runtime (fun env ->
      (* timed park with no unpark: times out, honouring short deadlines *)
      let t0 = Unix.gettimeofday () in
      let woke = Parker.park_timeout env.Runtime.parker ~seconds:0.002 in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "timed out" false woke;
      Alcotest.(check bool) "slept at least the timeout" true (dt >= 0.0015);
      Alcotest.(check bool)
        (Printf.sprintf "no gross oversleep (%.4fs)" dt)
        true (dt < 0.25);
      (* banked permit short-circuits the timed park *)
      Parker.unpark env.Runtime.parker;
      Alcotest.(check bool) "permit consumed" true
        (Parker.park_timeout env.Runtime.parker ~seconds:5.0);
      (* a sleeping fiber does not block its carrier *)
      let ticks = ref 0 in
      let j =
        Scheduler.spawn (fun _env ->
            for _ = 1 to 5 do
              incr ticks;
              Scheduler.yield ()
            done)
      in
      Scheduler.sleep 0.005;
      j ();
      Alcotest.(check int) "carrier kept running" 5 !ticks)

let test_unpark_from_os_thread () =
  let runtime = Runtime.create () in
  Scheduler.run runtime (fun env ->
      let parker = env.Runtime.parker in
      let t = Thread.create (fun () -> Parker.unpark parker) () in
      Parker.park parker;
      Thread.join t)

(* The counts [run_counted] sums over its workers.  Every task run ends
   in exactly one yield, suspend or fiber exit, so the dispatches are
   their sum (the fibers plus the main fiber exit once each). *)
let test_scheduler_counts () =
  let runtime = Runtime.create () in
  let fibers = 16 in
  let (), c =
    Scheduler.run_counted runtime (fun _env ->
        let joins =
          List.init fibers (fun _ ->
              Scheduler.spawn (fun env ->
                  Scheduler.yield ();
                  ignore (Parker.park_timeout env.Runtime.parker ~seconds:1e-4 : bool)))
        in
        List.iter (fun j -> j ()) joins)
  in
  Alcotest.(check int) "one yield per fiber" fibers c.Scheduler.yields;
  Alcotest.(check bool)
    (Printf.sprintf "a timed park per fiber (%d suspends)" c.Scheduler.suspends)
    true (c.Scheduler.suspends >= fibers);
  Alcotest.(check int) "dispatches = yields + suspends + exits"
    (c.Scheduler.yields + c.Scheduler.suspends + fibers + 1)
    c.Scheduler.dispatches

(* An OS thread joins a fiber while the scheduler runs: it blocks on
   the scheduler's joiner condition and the fiber's finish wakes it. *)
let test_os_thread_joins_fiber () =
  let runtime = Runtime.create () in
  Scheduler.run runtime (fun _env ->
      let started = Atomic.make false and release = Atomic.make false in
      let j =
        Scheduler.spawn (fun _env ->
            while not (Atomic.get release) do
              Scheduler.yield ()
            done)
      in
      let joined = Atomic.make false in
      let t =
        Thread.create
          (fun () ->
            Atomic.set started true;
            j ();
            Atomic.set joined true)
          ()
      in
      while not (Atomic.get started) do
        Thread.yield ()
      done;
      Alcotest.(check bool) "join blocks while the fiber runs" false (Atomic.get joined);
      Atomic.set release true;
      while not (Atomic.get joined) do
        Scheduler.yield ();
        Thread.yield ()
      done;
      Thread.join t)

(* ------------------------------------------------------------------ *)
(* Locks on fibers.                                                   *)
(* ------------------------------------------------------------------ *)

(* Contended counter: [fibers] fibers × [iters] increments under one
   thin lock, yielding inside the critical section so the lock is held
   across a suspension — forcing contention, inflation and fiber
   parking on a single carrier. *)
let contended_counter ~domains ~fibers ~iters () =
  let runtime = Runtime.create () in
  let sink = Sink.create ~ring_capacity:(8 * iters * fibers) () in
  let config =
    { Thin.default_config with backoff_policy = Backoff.Yield }
  in
  let counter = ref 0 in
  Scheduler.run ~domains runtime (fun _env ->
      let ctx = Thin.create_with ~config ~events:sink runtime in
      let o = obj () in
      Runtime.run_parallel ~backend:Runtime.Fiber_backend runtime fibers
        (fun _i env ->
          for _ = 1 to iters do
            Thin.acquire ctx env o;
            let v = !counter in
            Scheduler.yield ();
            counter := v + 1;
            Thin.release ctx env o
          done));
  Alcotest.(check int) "no lost updates" (fibers * iters) !counter;
  let d = Sink.drain sink in
  Alcotest.(check int) "no drops" 0 (List.length d.Sink.dropped);
  let report = Oracle.check d in
  if not (Oracle.ok report) then
    Alcotest.failf "oracle: %s" (Format.asprintf "%a" Oracle.pp report);
  (* holding across a yield under contention must have inflated *)
  Alcotest.(check bool) "saw inflation" true
    (Sink.count_kind d Event.Inflate_contention
     + Sink.count_kind d Event.Inflate_overflow
    > 0)

let test_thin_contention_fibers () = contended_counter ~domains:1 ~fibers:16 ~iters:50 ()

let test_thin_contention_two_domains () =
  (* With two carriers the counter read/write race is real, so guard it
     with the lock only (no unlocked section): still checks lost
     updates because the lock is the only mutual exclusion. *)
  let runtime = Runtime.create () in
  let config = { Thin.default_config with backoff_policy = Backoff.Yield } in
  let counter = ref 0 in
  let fibers = 32 and iters = 100 in
  Scheduler.run ~domains:2 runtime (fun _env ->
      let ctx = Thin.create_with ~config runtime in
      let o = obj () in
      Runtime.run_parallel ~backend:Runtime.Fiber_backend runtime fibers
        (fun _i env ->
          for _ = 1 to iters do
            Thin.acquire ctx env o;
            counter := !counter + 1;
            Thin.release ctx env o
          done));
  Alcotest.(check int) "no lost updates" (fibers * iters) !counter

let test_wait_notify_fibers () =
  let runtime = Runtime.create () in
  Scheduler.run runtime (fun _env ->
      let ctx = Thin.create_with runtime in
      let o = obj () in
      let state = ref `Waiting in
      let waiter =
        Scheduler.spawn (fun env ->
            Thin.acquire ctx env o;
            while !state = `Waiting do
              Thin.wait ctx env o
            done;
            state := `Done;
            Thin.release ctx env o)
      in
      let notifier =
        Scheduler.spawn (fun env ->
            Thin.acquire ctx env o;
            state := `Notified;
            Thin.notify ctx env o;
            Thin.release ctx env o)
      in
      waiter ();
      notifier ();
      Alcotest.(check bool) "handshake completed" true (!state = `Done))

(* Hapax at the storm's default window: 4096 waiters on a 1024-slot
   ring share slots, and every one of them parks instead of polling. *)
let test_hapax_storm_window_4096 () =
  let module FS = Tl_workload.Fiber_storm in
  let r =
    FS.run
      {
        FS.default_config with
        FS.fibers = 20_000;
        in_flight = 4096;
        scheme = Tl_baselines.Registry.find_entry_exn "thin-hapax";
      }
  in
  Alcotest.(check int) "every fiber completed" 20_000 r.FS.completed;
  Alcotest.(check int) "nothing dropped" 0 r.FS.dropped;
  match r.FS.oracle with
  | Some rep when Oracle.ok rep -> ()
  | Some rep -> Alcotest.failf "oracle: %s" (Format.asprintf "%a" Oracle.pp rep)
  | None -> Alcotest.fail "hapax storm produced no verdict"

(* ------------------------------------------------------------------ *)
(* Tid leasing under churn (satellite 3).                             *)
(* ------------------------------------------------------------------ *)

(* Cycle through 10× more fibers than the 15-bit index space, traced,
   in bounded-concurrency waves.  Every index gets recycled ~10 times;
   the oracle proves the per-tid streams were never
   misattributed (a recycled tid whose new holder's events interleaved
   with the old holder's would show up as unpaired acquires/releases on
   some object).  Kept cheap: tiny rings (events spread over all 32 k
   indices), one lock op per fiber. *)
let test_churn_recycling_streams () =
  let runtime = Runtime.create () in
  let sink = Sink.create ~ring_capacity:4096 ~system_capacity:(1 lsl 16) () in
  let total = 10 * Tid.max_index in
  let wave = 1024 in
  let objects = Array.init 64 (fun _ -> obj ()) in
  let done_count = ref 0 in
  Scheduler.run runtime (fun env ->
      let config =
        { Thin.default_config with backoff_policy = Backoff.Yield }
      in
      let ctx = Thin.create_with ~config ~events:sink runtime in
      let spawned = ref 0 in
      while !spawned < total do
        let n = min wave (total - !spawned) in
        let joins =
          List.init n (fun i ->
              let o = objects.((!spawned + i) land 63) in
              Scheduler.spawn (fun env ->
                  (* Yield while holding: the whole wave is live at
                     once (so leases spread over many indices and the
                     lock sees real contention between recycled tids)
                     instead of each fiber finishing — and freeing its
                     index — before the next one starts. *)
                  Thin.acquire ctx env o;
                  Scheduler.yield ();
                  incr done_count;
                  Thin.release ctx env o))
        in
        spawned := !spawned + n;
        List.iter (fun j -> j ()) joins;
        (* quiescence bounds ring residency pressure and epoch skew *)
        Runtime.quiescence_point ~env runtime
      done);
  Alcotest.(check int) "all fibers ran" total !done_count;
  Alcotest.(check int) "no overflow needed" 0 (Scheduler.overflow_waits ());
  let d = Sink.drain sink in
  Alcotest.(check int) "no rings overflowed" 0 (List.length d.Sink.dropped);
  let report = Oracle.check d in
  if not (Oracle.ok report) then
    Alcotest.failf "churned stream rejected: %s"
      (Format.asprintf "%a" Oracle.pp report);
  (* recycling actually happened: far more fibers than distinct tids *)
  let tids = List.length (Sink.active_tids sink) in
  Alcotest.(check bool)
    (Printf.sprintf "tids recycled (%d distinct for %d fibers)" tids total)
    true
    (tids <= Tid.max_index + 1)

(* Exhaust the 15-bit lease space with parked fibers: later spawns must
   take the overflow path (suspend until an index frees, emitting
   [Tid_overflow] on the system stream) and never see [Tid.Exhausted].
   Single domain, so plain mutable cells are safely published at yield
   points. *)
let test_lease_overflow_path () =
  let runtime = Runtime.create () in
  let sink = Sink.create ~ring_capacity:8 ~system_capacity:(1 lsl 16) () in
  Runtime.set_event_sink runtime sink;
  let total = Tid.max_index + 64 in
  let envs : Runtime.env option array = Array.make total None in
  let released = Array.make total false in
  let finished = ref 0 in
  Scheduler.run runtime (fun _env ->
      let joins =
        List.init total (fun i ->
            Scheduler.spawn (fun env ->
                envs.(i) <- Some env;
                Parker.park env.Runtime.parker;
                incr finished))
      in
      (* Sweep: unpark every fiber that has published its env.  Parked
         holders release their tids as they finish, which wakes
         overflow waiters; keep sweeping until everyone got through. *)
      let released_n = ref 0 in
      while !released_n < total do
        for i = 0 to total - 1 do
          match envs.(i) with
          | Some env when not released.(i) ->
              released.(i) <- true;
              incr released_n;
              Parker.unpark env.Runtime.parker
          | _ -> ()
        done;
        Scheduler.yield ()
      done;
      List.iter (fun j -> j ()) joins;
      Alcotest.(check int) "all fibers completed" total !finished;
      Alcotest.(check bool)
        (Printf.sprintf "overflow path taken (%d waits)"
           (Scheduler.overflow_waits ()))
        true
        (Scheduler.overflow_waits () > 0));
  let d = Sink.drain sink in
  let marks = Sink.count_kind d Event.Tid_overflow in
  Alcotest.(check bool)
    (Printf.sprintf "overflow marks on system stream (%d)" marks)
    true (marks > 0)

let () =
  Alcotest.run "fiber"
    [
      ( "blocker",
        [
          Alcotest.test_case "permit banking" `Quick test_blocker_permit;
          Alcotest.test_case "waker handoff" `Quick test_blocker_waker;
          Alcotest.test_case "cancel" `Quick test_blocker_cancel;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "run returns" `Quick test_run_returns;
          Alcotest.test_case "spawn/join/yield" `Quick test_spawn_join_yield;
          Alcotest.test_case "exception via join" `Quick
            test_fiber_exception_via_join;
          Alcotest.test_case "stray exception" `Quick
            test_stray_exception_reraised;
          Alcotest.test_case "runtime backend seam" `Quick
            test_runtime_spawn_backend;
          Alcotest.test_case "sleep and timed park" `Quick
            test_sleep_and_timeout;
          Alcotest.test_case "unpark from OS thread" `Quick
            test_unpark_from_os_thread;
          Alcotest.test_case "counts" `Quick test_scheduler_counts;
          Alcotest.test_case "OS thread joins a fiber" `Quick test_os_thread_joins_fiber;
        ] );
      ( "locks on fibers",
        [
          Alcotest.test_case "thin contention, 1 domain" `Quick
            test_thin_contention_fibers;
          Alcotest.test_case "thin contention, 2 domains" `Quick
            test_thin_contention_two_domains;
          Alcotest.test_case "wait/notify" `Quick test_wait_notify_fibers;
          Alcotest.test_case "hapax storm, window 4096" `Slow
            test_hapax_storm_window_4096;
        ] );
      ( "tid leasing",
        [
          Alcotest.test_case "recycling keeps streams clean" `Slow
            test_churn_recycling_streams;
          Alcotest.test_case "lease overflow path" `Slow
            test_lease_overflow_path;
        ] );
    ]
