(* tl_monitor: the fat-lock subsystem exercised directly (not through
   a locking scheme), plus the index table. *)

module Fatlock = Tl_monitor.Fatlock
module Montable = Tl_monitor.Montable
module Index_table = Tl_monitor.Index_table
module Runtime = Tl_runtime.Runtime
module Domain_checks = Tl_test_helpers.Domain_checks

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_env f =
  let runtime = Runtime.create () in
  f runtime (Runtime.main_env runtime)

let test_basic () =
  with_env (fun _ env ->
      let fat = Fatlock.create () in
      check_int "unowned" 0 (Fatlock.owner fat);
      Fatlock.acquire env fat;
      check "holds" true (Fatlock.holds env fat);
      check_int "count" 1 (Fatlock.count fat);
      Fatlock.acquire env fat;
      check_int "reentrant count" 2 (Fatlock.count fat);
      Fatlock.release env fat;
      Fatlock.release env fat;
      check_int "released" 0 (Fatlock.owner fat))

let test_create_locked () =
  with_env (fun _ env ->
      let me = env.Runtime.descriptor.Tl_runtime.Tid.index in
      let fat = Fatlock.create_locked ~owner:me ~count:42 () in
      check "holds" true (Fatlock.holds env fat);
      check_int "count transferred" 42 (Fatlock.count fat);
      for _ = 1 to 42 do
        Fatlock.release env fat
      done;
      check_int "balanced" 0 (Fatlock.owner fat))

let test_create_locked_validation () =
  (match Fatlock.create_locked ~owner:0 ~count:1 () with
  | _ -> Alcotest.fail "owner 0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Fatlock.create_locked ~owner:1 ~count:0 () with
  | _ -> Alcotest.fail "count 0 must be rejected"
  | exception Invalid_argument _ -> ()

let test_try_acquire () =
  with_env (fun runtime env ->
      let fat = Fatlock.create () in
      check "try on free" true (Fatlock.try_acquire env fat);
      check "try reentrant" true (Fatlock.try_acquire env fat);
      check_int "count 2" 2 (Fatlock.count fat);
      Runtime.run_parallel runtime 1 (fun _ env' ->
          check "try on foreign-held fails" false (Fatlock.try_acquire env' fat));
      Fatlock.release env fat;
      Fatlock.release env fat)

let test_release_by_non_owner () =
  with_env (fun runtime env ->
      let fat = Fatlock.create () in
      Fatlock.acquire env fat;
      Runtime.run_parallel runtime 1 (fun _ env' ->
          match Fatlock.release env' fat with
          | () -> Alcotest.fail "non-owner release must raise"
          | exception Fatlock.Illegal_monitor_state _ -> ());
      Fatlock.release env fat)

let test_queueing_fifo_ish () =
  (* A long-held lock with several blocked entrants: all must
     eventually get it exactly once. *)
  with_env (fun runtime env ->
      let fat = Fatlock.create () in
      let entered = Atomic.make 0 in
      Fatlock.acquire env fat;
      let handles =
        List.init 5 (fun i ->
            Runtime.spawn ~name:(Printf.sprintf "w%d" i) runtime (fun env' ->
                Fatlock.acquire env' fat;
                ignore (Atomic.fetch_and_add entered 1);
                Fatlock.release env' fat))
      in
      Unix.sleepf 0.05;
      check_int "nobody entered while held" 0 (Atomic.get entered);
      check "entry queue populated" true (Fatlock.entry_queue_length fat >= 1);
      Fatlock.release env fat;
      List.iter Runtime.join handles;
      check_int "all entered" 5 (Atomic.get entered);
      check_int "queue drained" 0 (Fatlock.entry_queue_length fat))

let test_wait_notify_counts () =
  with_env (fun runtime env ->
      let fat = Fatlock.create () in
      let stage = ref 0 in
      let h =
        Runtime.spawn runtime (fun env' ->
            Fatlock.acquire env' fat;
            stage := 1;
            while !stage < 2 do
              Fatlock.wait env' fat
            done;
            stage := 3;
            Fatlock.release env' fat)
      in
      let rec wait_for_stage n =
        if !stage < n then begin
          Thread.yield ();
          wait_for_stage n
        end
      in
      wait_for_stage 1;
      Unix.sleepf 0.02;
      check_int "waiter in wait set" 1 (Fatlock.wait_set_length fat);
      Fatlock.acquire env fat;
      stage := 2;
      Fatlock.notify env fat;
      Fatlock.release env fat;
      Runtime.join h;
      check_int "waiter resumed and finished" 3 !stage;
      check_int "wait set drained" 0 (Fatlock.wait_set_length fat))

let test_notify_no_waiters_is_noop () =
  with_env (fun _ env ->
      let fat = Fatlock.create () in
      Fatlock.acquire env fat;
      Fatlock.notify env fat;
      Fatlock.notify_all env fat;
      Fatlock.release env fat)

let test_wait_restores_nested_count () =
  with_env (fun runtime env ->
      let fat = Fatlock.create () in
      Fatlock.acquire env fat;
      Fatlock.acquire env fat;
      Fatlock.acquire env fat;
      let h =
        Runtime.spawn runtime (fun env' ->
            Unix.sleepf 0.02;
            Fatlock.acquire env' fat;
            Fatlock.notify env' fat;
            Fatlock.release env' fat)
      in
      Fatlock.wait env fat;
      Runtime.join h;
      check_int "count restored after wait" 3 (Fatlock.count fat);
      for _ = 1 to 3 do
        Fatlock.release env fat
      done;
      check_int "balanced" 0 (Fatlock.owner fat))

(* --- hapax admission --- *)

module Hapax = Tl_monitor.Hapax

(* Standalone ticket-lock harness over the bare admission engine,
   mirroring Fatlock's discipline: arrive under a latch, await outside
   it, claim/admit back under it.  Records the ticket of every grant in
   claim order; FIFO admission means that sequence is exactly
   0, 1, 2, ... — constant-time ticketing admits in arrival order with
   no barging. *)
let prop_hapax_fifo_admission =
  let gen = QCheck.Gen.int_range 100 400 in
  let arb = QCheck.make gen ~print:string_of_int in
  QCheck.Test.make ~name:"hapax: 2-domain grants are FIFO in ticket order"
    ~count:5 arb (fun ops ->
      let runtime = Runtime.create () in
      let h = Hapax.create ~slots:8 ~spin:4 () in
      let latch = Mutex.create () in
      let owner = ref 0 in
      let order = ref [] in
      let acquisitions = Atomic.make 0 in
      Runtime.run_parallel runtime 2 (fun _ env ->
          let me = env.Runtime.descriptor.Tl_runtime.Tid.index in
          for _ = 1 to ops do
            (* fast path only when free AND the pipeline is drained —
               tickets ahead of us must not be barged (Fatlock's
               [fast_claimable]).  A ticket taken while the lock is
               owned or the pipeline live always has a future admitter:
               the chain releaser-admits -> grantee-claims -> releases
               cannot strand it. *)
            Mutex.lock latch;
            if !owner = 0 && Hapax.pipeline_empty h then begin
              owner := me;
              Mutex.unlock latch
            end
            else begin
              let ticket = Hapax.arrive h in
              Mutex.unlock latch;
              ignore (Hapax.await env h ticket : [ `Spun | `Parked ]);
              Mutex.lock latch;
              if !owner <> 0 then Alcotest.fail "granted while owned";
              Hapax.claim h;
              owner := me;
              order := ticket :: !order;
              Mutex.unlock latch
            end;
            Atomic.incr acquisitions;
            Thread.yield ();
            (* release: grant the next arrival, if any *)
            Mutex.lock latch;
            owner := 0;
            (match Hapax.admit h with
            | Some g ->
                Mutex.unlock latch;
                Hapax.wake h g
            | None -> Mutex.unlock latch)
          done);
      let grants = List.rev !order in
      let n = List.length grants in
      Atomic.get acquisitions = 2 * ops
      && Hapax.pipeline_empty h
      && List.for_all2 ( = ) grants (List.init n Fun.id))

(* The CLI's --fat-backend enum maps each backend's name back to it, so
   no two backends may share a name. *)
let test_backend_names_distinct () =
  let names = List.map Fatlock.backend_name Fatlock.all_backends in
  check_int "one name per backend" (List.length Fatlock.all_backends)
    (List.length (List.sort_uniq String.compare names))

(* --- index table --- *)

let test_index_table_basics () =
  (* One shard so allocation order is deterministic: handles are dense
     from 1 (generation 0 handles coincide with raw slot numbers). *)
  let t = Index_table.create ~shards:1 () in
  let i1 = Index_table.allocate t "one" in
  let i2 = Index_table.allocate t "two" in
  check_int "dense from 1" 1 i1;
  check_int "second" 2 i2;
  Alcotest.(check string) "get" "one" (Index_table.get t i1);
  check_int "allocated" 2 (Index_table.allocated t);
  (match Index_table.get t 0 with
  | _ -> Alcotest.fail "index 0 invalid"
  | exception Invalid_argument _ -> ());
  match Index_table.get t 99 with
  | _ -> Alcotest.fail "unallocated index invalid"
  | exception Invalid_argument _ -> ()

let test_index_table_growth () =
  let t = Index_table.create () in
  let indices = List.init 500 (fun i -> Index_table.allocate t i) in
  List.iteri
    (fun i idx -> check_int "stable across growth" i (Index_table.get t idx))
    indices

let test_index_table_exhaustion () =
  let t = Index_table.create ~max_index:3 () in
  ignore (Index_table.allocate t 0);
  ignore (Index_table.allocate t 0);
  ignore (Index_table.allocate t 0);
  match Index_table.allocate t 0 with
  | _ -> Alcotest.fail "must exhaust"
  | exception Failure _ -> ()

let test_index_table_concurrent () =
  let t = Index_table.create () in
  let runtime = Runtime.create () in
  let results = Array.make 4 [] in
  Runtime.run_parallel runtime 4 (fun i _env ->
      results.(i) <- List.init 300 (fun j -> Index_table.allocate t ((i * 1000) + j)));
  (* all indices distinct, all values retrievable *)
  let all = List.concat (Array.to_list results) in
  check_int "distinct" 1200 (List.length (List.sort_uniq compare all));
  Array.iteri
    (fun i indices ->
      List.iteri
        (fun j idx -> check_int "value" ((i * 1000) + j) (Index_table.get t idx))
        indices)
    results

(* --- slot recycling and generation tags (the deflation fix) --- *)

let test_free_and_reuse () =
  let t = Index_table.create ~shards:1 () in
  let h1 = Index_table.allocate t "first" in
  Index_table.free t h1;
  check_int "live back to zero" 0 (Index_table.live t);
  let h2 = Index_table.allocate t "second" in
  check_int "same slot recycled" (Index_table.slot_of_handle t h1)
    (Index_table.slot_of_handle t h2);
  check_int "generation bumped" 1 (Index_table.generation_of_handle t h2);
  Alcotest.(check bool) "handles differ" true (h1 <> h2);
  (* The stale handle no longer reaches the new occupant. *)
  (match Index_table.get t h1 with
  | _ -> Alcotest.fail "stale handle must not resolve"
  | exception Index_table.Stale _ -> ());
  Alcotest.(check (option string)) "find on stale" None (Index_table.find t h1);
  Alcotest.(check string) "fresh handle resolves" "second" (Index_table.get t h2);
  check_int "reuse counted" 1 (Index_table.reuses t);
  check_int "census counts both" 2 (Index_table.allocated t)

let test_double_free_raises () =
  let t = Index_table.create ~shards:1 () in
  let h = Index_table.allocate t "x" in
  Index_table.free t h;
  match Index_table.free t h with
  | () -> Alcotest.fail "double free must raise Stale"
  | exception Index_table.Stale _ -> ()

let test_free_then_exhaustion_recovers () =
  let t = Index_table.create ~max_index:3 () in
  let h1 = Index_table.allocate t "a" in
  ignore (Index_table.allocate t "b");
  ignore (Index_table.allocate t "c");
  (match Index_table.allocate t "d" with
  | _ -> Alcotest.fail "must exhaust at 3 slots"
  | exception Failure _ -> ());
  (* Freeing one slot makes the table usable again — the leak the seed
     had would keep it dead forever. *)
  Index_table.free t h1;
  let h4 = Index_table.allocate t "d" in
  check_int "recycled the freed slot" (Index_table.slot_of_handle t h1)
    (Index_table.slot_of_handle t h4);
  Alcotest.(check string) "value readable" "d" (Index_table.get t h4)

let test_churn_never_exhausts () =
  (* Far more allocate/free cycles than the table has slots: reclamation
     must keep it alive indefinitely, with generations wrapping. *)
  let t = Index_table.create ~max_index:7 ~generation_width:5 () in
  for i = 1 to 1_000 do
    let h = Index_table.allocate t i in
    check_int "readable" i (Index_table.get t h);
    Index_table.free t h
  done;
  check_int "census saw all cycles" 1_000 (Index_table.allocated t);
  check_int "nothing live" 0 (Index_table.live t)

let test_concurrent_alloc_free_stress () =
  let t = Index_table.create () in
  let runtime = Runtime.create () in
  let sentinel = Index_table.allocate t (-1) in
  let domains = 4 in
  let cycles = 2_000 in
  (* The workers check through [Domain_checks]: Alcotest itself may only
     be called from the main domain. *)
  let wc = Domain_checks.create () in
  Runtime.run_parallel ~backend:Runtime.Domain_backend runtime domains (fun i _env ->
      for j = 1 to cycles do
        let h = Index_table.allocate ~shard_hint:i t ((i * 100_000) + j) in
        (* Our own handle must stay valid until we free it... *)
        Domain_checks.check_int wc "own handle valid" ((i * 100_000) + j) (Index_table.get t h);
        (* ...and probing the shared sentinel must never observe a
           recycled occupant: Some (-1) before its free, None after. *)
        (match Index_table.find t sentinel with
        | Some v -> Domain_checks.check_int wc "sentinel value intact" (-1) v
        | None -> ());
        if i = 0 && j = cycles / 2 then Index_table.free t sentinel;
        Index_table.free t h
      done);
  Domain_checks.assert_none wc;
  check_int "all slots reclaimed" 0 (Index_table.live t);
  check_int "census" ((domains * cycles) + 1) (Index_table.allocated t);
  Alcotest.(check bool) "free lists recycled slots" true (Index_table.reuses t > 0)

let test_montable_free_find () =
  let t = Montable.create () in
  let fat = Fatlock.create () in
  let h = Montable.allocate t ~lockword:(Atomic.make 0) fat in
  Alcotest.(check bool) "find resolves" true
    (match Montable.find t h with Some f -> f == fat | None -> false);
  Montable.free t h;
  Alcotest.(check bool) "find after free" true (Montable.find t h = None);
  check_int "live" 0 (Montable.live t);
  check_int "frees" 1 (Montable.frees t)

let test_fatlock_is_idle () =
  with_env (fun _ env ->
      let fat = Fatlock.create () in
      Alcotest.(check bool) "fresh monitor idle" true (Fatlock.is_idle fat);
      Fatlock.acquire env fat;
      Alcotest.(check bool) "held monitor not idle" false (Fatlock.is_idle fat);
      Fatlock.release env fat;
      Alcotest.(check bool) "idle again after release" true (Fatlock.is_idle fat))

let test_montable_is_index_table_of_fatlocks () =
  let t = Montable.create () in
  let fat = Fatlock.create () in
  let idx = Montable.allocate t ~lockword:(Atomic.make 0) fat in
  check "same fat back" true (Montable.get t idx == fat);
  check_int "census" 1 (Montable.allocated t)

(* --- fiber waiters: park at once, handed the monitor on release --- *)

module Scheduler = Tl_fiber.Scheduler
module Parker = Tl_runtime.Parker

let index (env : Runtime.env) = env.Runtime.descriptor.Tl_runtime.Tid.index

let acquired env fat =
  match Fatlock.acquire_live env fat with
  | `Acquired e -> e
  | `Retired -> Alcotest.fail "retired without a deflater"

(* One carrier, K waiters, a holder that yields in its critical
   section and releases while the waiters are still fresh in the queue.
   A spinning waiter would see the monitor unowned and barge past the
   head; a handed-off monitor is never unowned, so grants follow the
   entry queue exactly and nobody claims in a spin phase. *)
let test_fiber_grants_in_queue_order () =
  let runtime = Runtime.create () in
  let k = 8 in
  let queued = ref [] and granted = ref [] and entries = ref [] in
  Scheduler.run runtime (fun env ->
      let fat = Fatlock.create () in
      Fatlock.acquire env fat;
      let joins =
        List.init k (fun i ->
            Scheduler.spawn (fun env' ->
                (* nothing yields between the note and the enqueue *)
                queued := i :: !queued;
                entries := acquired env' fat :: !entries;
                granted := i :: !granted;
                Scheduler.yield ();
                Fatlock.release env' fat))
      in
      while Fatlock.entry_queue_length fat < k do
        Scheduler.yield ()
      done;
      Scheduler.yield ();
      Fatlock.release env fat;
      List.iter (fun j -> j ()) joins;
      check "idle after the last grant" true (Fatlock.is_idle fat));
  Alcotest.(check (list int)) "grants in queue order" (List.rev !queued) (List.rev !granted);
  check "every fiber waiter parked without spinning" true
    (List.for_all (fun e -> e = Fatlock.Entry_parked) !entries)

(* Between the release that hands the monitor to a parked fiber and
   that fiber's resume, the monitor is owned by the waiter: a fresh
   arrival cannot take it and a deflater cannot retire it. *)
let test_handoff_window () =
  let runtime = Runtime.create () in
  Scheduler.run runtime (fun env ->
      let fat = Fatlock.create () in
      Fatlock.acquire env fat;
      let waiter = ref 0 and entry = ref Fatlock.Entry_immediate and count = ref 0 in
      let j =
        Scheduler.spawn (fun env' ->
            waiter := index env';
            entry := acquired env' fat;
            count := Fatlock.count fat;
            Fatlock.release env' fat)
      in
      while Fatlock.entry_queue_length fat < 1 do
        Scheduler.yield ()
      done;
      Fatlock.release env fat;
      (* the waiter has not run since: this fiber never yielded *)
      check_int "owned by the waiter" !waiter (Fatlock.owner fat);
      let arrival = Runtime.register_current runtime ~name:"arrival" in
      check "fresh arrival refused" false (Fatlock.try_acquire arrival fat);
      Runtime.unregister arrival;
      check "not idle" false (Fatlock.is_idle fat);
      check "not retirable" false (Fatlock.retire_if_idle fat);
      j ();
      check "waiter resumed as owner" true (!entry = Fatlock.Entry_parked);
      check_int "handed over with count 1" 1 !count;
      check "retirable once released" true (Fatlock.retire_if_idle fat))

(* A permit left over from another monitor wakes the second waiter
   before the first one, to whom the release handed the monitor, has
   run.  The second waiter must find the monitor owned and park again,
   not claim it. *)
let test_stale_permit_waits_for_handoff () =
  let runtime = Runtime.create () in
  let granted = ref [] in
  Scheduler.run runtime (fun env ->
      let fat = Fatlock.create () in
      Fatlock.acquire env fat;
      let parkers = Array.make 2 None in
      let waiter i =
        Scheduler.spawn (fun env' ->
            parkers.(i) <- Some env'.Runtime.parker;
            ignore (acquired env' fat : Fatlock.entry);
            granted := i :: !granted;
            Fatlock.release env' fat)
      in
      let j0 = waiter 0 in
      while Fatlock.entry_queue_length fat < 1 do
        Scheduler.yield ()
      done;
      let j1 = waiter 1 in
      while Fatlock.entry_queue_length fat < 2 do
        Scheduler.yield ()
      done;
      Fatlock.release env fat;
      Parker.unpark (Option.get parkers.(1));
      j1 ();
      j0 ());
  Alcotest.(check (list int)) "grants in queue order" [ 0; 1 ] (List.rev !granted)

(* OS threads keep the spin phase: a holder that releases while its
   waiter is still spinning lets the waiter claim without parking.  On
   one domain the waiter's yield is what runs the holder, so this
   happens within a few trials. *)
let test_os_waiter_spins () =
  with_env (fun runtime env ->
      let fat = Fatlock.create () in
      let rec trial n =
        Fatlock.acquire env fat;
        let entry = ref Fatlock.Entry_immediate in
        let h =
          Runtime.spawn runtime (fun env' ->
              entry := acquired env' fat;
              Fatlock.release env' fat)
        in
        while Fatlock.entry_queue_length fat < 1 do
          Thread.yield ()
        done;
        Fatlock.release env fat;
        Runtime.join h;
        !entry = Fatlock.Entry_spun || (n > 1 && trial (n - 1))
      in
      check "an OS-thread waiter claims in its spin phase" true (trial 50))

let () =
  Alcotest.run "monitor"
    [
      ( "fatlock",
        [
          Alcotest.test_case "acquire/release/reentrancy" `Quick test_basic;
          Alcotest.test_case "create_locked transfers count" `Quick test_create_locked;
          Alcotest.test_case "create_locked validates" `Quick test_create_locked_validation;
          Alcotest.test_case "try_acquire" `Slow test_try_acquire;
          Alcotest.test_case "release by non-owner raises" `Slow test_release_by_non_owner;
          Alcotest.test_case "queueing drains" `Slow test_queueing_fifo_ish;
          Alcotest.test_case "wait/notify" `Slow test_wait_notify_counts;
          Alcotest.test_case "notify without waiters" `Quick test_notify_no_waiters_is_noop;
          Alcotest.test_case "wait restores nested count" `Slow
            test_wait_restores_nested_count;
        ] );
      ( "hapax admission",
        [
          QCheck_alcotest.to_alcotest prop_hapax_fifo_admission;
          Alcotest.test_case "backend names are distinct" `Quick test_backend_names_distinct;
        ] );
      ( "fiber handoff",
        [
          Alcotest.test_case "grants in queue order" `Quick test_fiber_grants_in_queue_order;
          Alcotest.test_case "handoff window is owned" `Quick test_handoff_window;
          Alcotest.test_case "stale permit waits its turn" `Quick
            test_stale_permit_waits_for_handoff;
          Alcotest.test_case "OS-thread waiters still spin" `Slow test_os_waiter_spins;
        ] );
      ( "index table",
        [
          Alcotest.test_case "basics" `Quick test_index_table_basics;
          Alcotest.test_case "growth keeps values" `Quick test_index_table_growth;
          Alcotest.test_case "exhaustion" `Quick test_index_table_exhaustion;
          Alcotest.test_case "concurrent allocation" `Slow test_index_table_concurrent;
          Alcotest.test_case "montable wraps fat locks" `Quick
            test_montable_is_index_table_of_fatlocks;
        ] );
      ( "slot recycling",
        [
          Alcotest.test_case "free and reuse bumps generation" `Quick test_free_and_reuse;
          Alcotest.test_case "double free raises Stale" `Quick test_double_free_raises;
          Alcotest.test_case "freeing recovers from exhaustion" `Quick
            test_free_then_exhaustion_recovers;
          Alcotest.test_case "churn past the slot count" `Quick test_churn_never_exhausts;
          Alcotest.test_case "concurrent allocate/get/free stress" `Slow
            test_concurrent_alloc_free_stress;
          Alcotest.test_case "montable free and find" `Quick test_montable_free_find;
          Alcotest.test_case "fatlock idleness probe" `Quick test_fatlock_is_idle;
        ] );
    ]
