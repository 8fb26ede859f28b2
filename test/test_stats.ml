(* Lock_stats under real parallelism: per-thread counter blocks must
   add up to exact totals after a join, survive tid recycling, reset
   completely, register one block per recording thread, and give
   monotone snapshots while threads are still recording. *)

module Runtime = Tl_runtime.Runtime
module Lock_stats = Tl_core.Lock_stats
module Thin = Tl_core.Thin
module Heap = Tl_heap.Heap
module Scheduler = Tl_fiber.Scheduler
module Domain_checks = Tl_test_helpers.Domain_checks

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let hist = Alcotest.(list (pair int int))

(* Nesting depth of round [j]: 1..4, so every round opens one episode of
   that depth on a private object. *)
let depth_of j = 1 + (j mod 4)

(* [rounds] episodes on [obj], episode j nested [depth_of j] deep. *)
let rounds_with ~acquire ~release obj ~rounds =
  for j = 0 to rounds - 1 do
    for _ = 1 to depth_of j do
      acquire obj
    done;
    for _ = 1 to depth_of j do
      release obj
    done
  done

let nested_rounds ctx env obj ~rounds =
  rounds_with ~acquire:(Thin.acquire ctx env) ~release:(Thin.release ctx env) obj ~rounds

(* The depth histogram [sequences] calls of [nested_rounds] produce: an
   episode of depth k adds one acquire at each depth 1..k. *)
let expected_hist ~sequences ~rounds =
  let at_depth = Array.make 5 0 in
  for j = 0 to rounds - 1 do
    for d = 1 to depth_of j do
      at_depth.(d) <- at_depth.(d) + sequences
    done
  done;
  List.init 4 (fun i -> (i + 1, at_depth.(i + 1)))

(* Hold each of [n] workers until all have started.  Indices are leased
   at spawn and released at exit, so without it a worker that finished
   early would hand its index (and block) to a later one. *)
let barrier n =
  let arrived = Atomic.make 0 in
  fun () ->
    Atomic.incr arrived;
    while Atomic.get arrived < n do
      Unix.sleepf 1e-4
    done

(* (a) Each domain hammers its own objects (no contention, so the thin
   fast paths are the only categories), then one snapshot after the
   join must equal the counts to the unit.  The same episodes replayed
   under the schemes with no thin path (fat, jdk111, ibm112, mcs) book
   every acquire, nested ones included, as a fat-monitor acquire: their
   [fast_ratio] is 0, not the 100% a thin-shaped booking would give. *)
let test_hammer domains () =
  let objs_per_domain = 3 and rounds = 4_000 in
  let hammer name =
    let runtime = Runtime.create () in
    let scheme = Tl_baselines.Registry.find_exn name runtime in
    let objs = Heap.alloc_many (Heap.create ()) (domains * objs_per_domain) in
    let all_started = barrier domains in
    Runtime.run_parallel ~backend:Runtime.Domain_backend runtime domains (fun i env ->
        all_started ();
        for k = 0 to objs_per_domain - 1 do
          rounds_with ~acquire:(scheme.acquire env) ~release:(scheme.release env)
            objs.((i * objs_per_domain) + k) ~rounds
        done);
    check_int (name ^ ": one block per worker") domains (scheme.stats_blocks ());
    scheme.stats ()
  in
  let sequences = domains * objs_per_domain in
  let episodes = sequences * rounds in
  let acquires = List.fold_left (fun a (_, c) -> a + c) 0 (expected_hist ~sequences ~rounds) in
  let s = hammer "thin" in
  check_int "unlocked acquires: one per episode" episodes s.Lock_stats.acquires_unlocked;
  check_int "nested acquires: the rest" (acquires - episodes) s.Lock_stats.acquires_nested;
  check_int "no fat acquires" 0 (s.Lock_stats.acquires_fat_fast + s.Lock_stats.acquires_fat_queued);
  check_int "fast releases" episodes s.Lock_stats.releases_fast;
  check_int "nested releases" (acquires - episodes) s.Lock_stats.releases_nested;
  check_int "no inflations" 0 (Lock_stats.total_inflations s);
  check_int "objects synchronized" sequences s.Lock_stats.objects_synchronized;
  Alcotest.check hist "depth histogram" (expected_hist ~sequences ~rounds) s.Lock_stats.depth_hist;
  Alcotest.(check (float 0.0)) "thin fast ratio" 1.0 (Tl_workload.Parallel_replay.fast_ratio s);
  List.iter
    (fun name ->
      let s = hammer name in
      check_int (name ^ ": no unlocked acquires") 0 s.Lock_stats.acquires_unlocked;
      check_int (name ^ ": no nested acquires") 0 s.Lock_stats.acquires_nested;
      check_int (name ^ ": every acquire through the monitor") acquires
        (s.Lock_stats.acquires_fat_fast + s.Lock_stats.acquires_fat_queued);
      check_int (name ^ ": every release through the monitor") acquires s.Lock_stats.releases_fat;
      check_int (name ^ ": objects synchronized") sequences s.Lock_stats.objects_synchronized;
      Alcotest.check hist (name ^ ": depth histogram") (expected_hist ~sequences ~rounds)
        s.Lock_stats.depth_hist;
      Alcotest.(check (float 0.0)) (name ^ ": fast ratio") 0.0
        (Tl_workload.Parallel_replay.fast_ratio s))
    [ "fat"; "jdk111"; "ibm112"; "mcs" ]

(* (b) Fibers in waves of [window] on two carrier domains: each wave
   leases indices the previous one released, so far fewer blocks than
   fibers exist, and every recycled index keeps adding to its block
   without losing a count. *)
let test_tid_recycling () =
  let runtime = Runtime.create () in
  let fibers = 256 and window = 8 and rounds = 50 in
  let heap = Heap.create () in
  let objs = Heap.alloc_many heap fibers in
  let wc = Domain_checks.create () in
  let ctx =
    Scheduler.run ~domains:2 runtime (fun _genv ->
        let ctx = Thin.create runtime in
        for wave = 0 to (fibers / window) - 1 do
          let joins =
            List.init window (fun k ->
                let obj = objs.((wave * window) + k) in
                Scheduler.spawn (fun env ->
                    nested_rounds ctx env obj ~rounds;
                    Domain_checks.check_bool wc "fiber ends unlocked" false
                      (Thin.holds ctx env obj)))
          in
          List.iter (fun join -> join ()) joins
        done;
        ctx)
  in
  Domain_checks.assert_none wc;
  let s = Lock_stats.snapshot (Thin.stats ctx) in
  let blocks = Lock_stats.block_count (Thin.stats ctx) in
  check (Printf.sprintf "indices recycled (%d blocks for %d fibers)" blocks fibers) true
    (blocks <= 4 * window);
  Alcotest.check hist "no count lost to recycling"
    (expected_hist ~sequences:fibers ~rounds)
    s.Lock_stats.depth_hist;
  check_int "every episode released" (fibers * rounds) s.Lock_stats.releases_fast

(* (c) [reset] zeroes every registered block and extra counter, and
   both keep counting from zero afterwards: a counter handle resolved
   before the reset stays the key's counter. *)
let test_reset () =
  let runtime = Runtime.create () in
  let ctx = Thin.create runtime in
  let heap = Heap.create () in
  let objs = Heap.alloc_many heap 4 in
  let hammer () =
    let all_started = barrier 4 in
    Runtime.run_parallel ~backend:Runtime.Domain_backend runtime 4 (fun i env ->
        all_started ();
        nested_rounds ctx env objs.(i) ~rounds:100)
  in
  hammer ();
  let stats = Thin.stats ctx in
  let probe = Lock_stats.counter stats "probe" in
  let probed () = List.assoc_opt "probe" (Lock_stats.snapshot stats).Lock_stats.extra in
  Lock_stats.count probe 2;
  Lock_stats.count (Lock_stats.counter stats "probe") 3;
  Alcotest.(check (option int)) "handle and key share one counter" (Some 5) (probed ());
  check "counts recorded" true (Lock_stats.total_acquires (Lock_stats.snapshot stats) > 0);
  Lock_stats.reset stats;
  Alcotest.(check (option int)) "extra zeroed, key kept" (Some 0) (probed ());
  Lock_stats.count probe 1;
  Alcotest.(check (option int)) "handle counts after reset" (Some 1) (probed ());
  let s = Lock_stats.snapshot stats in
  check_int "acquires zeroed" 0 (Lock_stats.total_acquires s);
  check_int "releases zeroed" 0
    (s.Lock_stats.releases_fast + s.Lock_stats.releases_nested + s.Lock_stats.releases_fat);
  check_int "objects zeroed" 0 s.Lock_stats.objects_synchronized;
  Alcotest.check hist "histogram emptied" [] s.Lock_stats.depth_hist;
  check_int "blocks stay registered" 4 (Lock_stats.block_count stats);
  hammer ();
  Alcotest.check hist "counting resumes from zero"
    (expected_hist ~sequences:4 ~rounds:100)
    (Lock_stats.snapshot stats).Lock_stats.depth_hist

(* (d) A ctx touched by k live threads registers exactly k blocks; a second
   round of k threads reuses the same (recycled) indices and so the
   same blocks. *)
let test_block_per_thread () =
  List.iter
    (fun k ->
      let runtime = Runtime.create () in
      let ctx = Thin.create runtime in
      let heap = Heap.create () in
      let obj = Heap.alloc heap in
      let round () =
        let all_started = barrier k in
        Runtime.run_parallel ~backend:Runtime.Domain_backend runtime k (fun _ env ->
            all_started ();
            Thin.acquire ctx env obj;
            Thin.release ctx env obj)
      in
      check_int "no block before any record" 0 (Lock_stats.block_count (Thin.stats ctx));
      round ();
      check_int (Printf.sprintf "%d threads, %d blocks" k k) k
        (Lock_stats.block_count (Thin.stats ctx));
      round ();
      check_int "recycled indices reuse their blocks" k (Lock_stats.block_count (Thin.stats ctx));
      check_int "every acquire counted" (2 * k)
        (Lock_stats.total_acquires (Lock_stats.snapshot (Thin.stats ctx))))
    [ 1; 2; 3; 4 ]

(* (e) Snapshots taken while two domains record never go backwards.
   The workers record in batches until the main domain, having seen
   both start, has taken its snapshots; the final snapshot must then
   match the batches they report. *)
let test_live_snapshots_monotone () =
  let runtime = Runtime.create () in
  let ctx = Thin.create runtime in
  let heap = Heap.create () in
  let objs = Heap.alloc_many heap 2 in
  let stats = Thin.stats ctx in
  let batch = 100 and wanted = 500 in
  let started = Atomic.make 0 and stop = Atomic.make false in
  let rounds = Array.make 2 0 in
  let workers =
    List.init 2 (fun i ->
        Runtime.spawn ~backend:Runtime.Domain_backend runtime (fun env ->
            nested_rounds ctx env objs.(i) ~rounds:batch;
            Atomic.incr started;
            let n = ref batch in
            while not (Atomic.get stop) do
              nested_rounds ctx env objs.(i) ~rounds:batch;
              n := !n + batch
            done;
            rounds.(i) <- !n))
  in
  let key (s : Lock_stats.snapshot) =
    [
      s.Lock_stats.acquires_unlocked; s.acquires_nested; s.releases_fast; s.releases_nested;
      s.objects_synchronized;
    ]
    @ List.init 5 (fun d -> Option.value ~default:0 (List.assoc_opt d s.depth_hist))
  in
  while Atomic.get started < 2 do
    Unix.sleepf 1e-4
  done;
  let prev = ref (key (Lock_stats.snapshot stats)) and regressions = ref 0 in
  for _ = 1 to wanted do
    let s = key (Lock_stats.snapshot stats) in
    if not (List.for_all2 ( <= ) !prev s) then incr regressions;
    prev := s
  done;
  Atomic.set stop true;
  List.iter Runtime.join workers;
  check_int (Printf.sprintf "no snapshot of %d went backwards" wanted) 0 !regressions;
  let expected =
    List.map2
      (fun (d, a) (_, b) -> (d, a + b))
      (expected_hist ~sequences:1 ~rounds:rounds.(0))
      (expected_hist ~sequences:1 ~rounds:rounds.(1))
  in
  Alcotest.check hist "final snapshot exact" expected (Lock_stats.snapshot stats).Lock_stats.depth_hist

(* (f) The UnlkC&S and MP Sync variants differ from thin only in their
   release store and fences, so one javalex replay on one domain books
   the same counters under all three, depth histogram included.
   thin-nostats books nothing and registers no block; only the sampled
   gauges (the monitor census, clamped events) still read. *)
let test_variants_book_the_same () =
  let module PR = Tl_workload.Parallel_replay in
  let javalex = Option.get (Tl_workload.Profiles.find "javalex") in
  let trace = Tl_workload.Tracegen.generate ~seed:1998 ~max_syncs:20_000 javalex in
  let replay name =
    let runtime = Runtime.create () in
    let scheme = Tl_baselines.Registry.find_exn name runtime in
    let r = PR.run ~config:{ PR.default_config with PR.domains = 1 } ~scheme ~runtime trace in
    (r, scheme.stats_blocks ())
  in
  let snapshot = Alcotest.testable Lock_stats.pp ( = ) in
  let r, _ = replay "thin" in
  let thin = r.PR.stats in
  check_int "thin books every acquire" r.PR.acquires (Lock_stats.total_acquires thin);
  check "thin books nested acquires" true (thin.Lock_stats.acquires_nested > 0);
  List.iter
    (fun name ->
      Alcotest.check snapshot (name ^ " books what thin books") thin (fst (replay name)).PR.stats)
    [ "thin-unlkcas"; "thin-mpsync" ];
  let r, blocks = replay "thin-nostats" in
  let s = r.PR.stats in
  check_int "thin-nostats registers no block" 0 blocks;
  let gauge (k, _) = String.starts_with ~prefix:"monitors." k || k = "events.clamped" in
  check "thin-nostats: only gauges among the extras" true (List.for_all gauge s.Lock_stats.extra);
  Alcotest.check snapshot "thin-nostats books nothing"
    { (Lock_stats.snapshot (Lock_stats.create ())) with Lock_stats.extra = [] }
    { s with Lock_stats.extra = [] }

let () =
  Alcotest.run "stats"
    [
      ( "per-thread blocks",
        [
          Alcotest.test_case "2-domain nested hammer is exact" `Quick (test_hammer 2);
          Alcotest.test_case "4-domain nested hammer is exact" `Quick (test_hammer 4);
          Alcotest.test_case "fiber tid recycling loses no counts" `Quick test_tid_recycling;
          Alcotest.test_case "reset zeroes every block" `Quick test_reset;
          Alcotest.test_case "one block per recording thread" `Quick test_block_per_thread;
          Alcotest.test_case "live snapshots never decrease" `Quick
            test_live_snapshots_monotone;
          Alcotest.test_case "thin variants book the same counters" `Quick
            test_variants_book_the_same;
        ] );
    ]
