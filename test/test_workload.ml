(* tl_workload: profile invariants against the paper's aggregates,
   trace-generator conformance (qcheck over profiles), replay
   correctness, micro kernels, and report smoke tests. *)

open Tl_workload
module Runtime = Tl_runtime.Runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- profiles --- *)

let test_profile_aggregates () =
  check_int "benchmark count" 18 (List.length Profiles.all);
  let med = Profiles.median_syncs_per_object () in
  check "median syncs/object ~22.7 (paper)" true (med > 20.0 && med < 26.0);
  let d1 = Profiles.median_depth1_fraction () in
  check "median depth-1 ~0.80 (paper)" true (d1 > 0.75 && d1 < 0.85);
  List.iter
    (fun (p : Profiles.t) ->
      check (p.Profiles.name ^ " depth-1 >= 45%") true (p.Profiles.depth_fractions.(0) >= 0.45);
      let sum = Array.fold_left ( +. ) 0.0 p.Profiles.depth_fractions in
      check (p.Profiles.name ^ " fractions sum to 1") true (Float.abs (sum -. 1.0) < 1e-6))
    Profiles.all

let test_fig5_medians () =
  let thin = List.map (fun p -> p.Profiles.fig5_speedup_thin) Profiles.all in
  let ibm = List.map (fun p -> p.Profiles.fig5_speedup_ibm) Profiles.all in
  let med l = Tl_util.Stats.median (Array.of_list l) in
  Alcotest.(check (float 0.02)) "thin median 1.22" 1.22 (med thin);
  Alcotest.(check (float 0.02)) "ibm median 1.04" 1.035 (med ibm);
  Alcotest.(check (float 1e-9)) "thin max 1.7" 1.7 (List.fold_left Float.max 0.0 thin)

let test_find () =
  check "find jax" true (Profiles.find "jax" <> None);
  check "find missing" true (Profiles.find "nope" = None)

(* --- tracegen --- *)

let profile_arb =
  QCheck.make
    (QCheck.Gen.oneofl Profiles.all)
    ~print:(fun (p : Profiles.t) -> p.Profiles.name)

let prop_trace_balanced =
  QCheck.Test.make ~name:"traces are balanced and properly nested" ~count:18 profile_arb
    (fun p ->
      let trace = Tracegen.generate ~max_syncs:5_000 p in
      (* every acquire has a matching release; depth per object never
         goes negative *)
      let depth = Hashtbl.create 32 in
      let ok = ref true in
      Array.iter
        (fun op ->
          let idx = abs op - 1 in
          let d = Option.value ~default:0 (Hashtbl.find_opt depth idx) in
          if op > 0 then Hashtbl.replace depth idx (d + 1)
          else if d <= 0 then ok := false
          else Hashtbl.replace depth idx (d - 1))
        trace.Tracegen.ops;
      Hashtbl.iter (fun _ d -> if d <> 0 then ok := false) depth;
      !ok)

let prop_trace_depth_census =
  QCheck.Test.make ~name:"trace depth census tracks the profile" ~count:18 profile_arb
    (fun p ->
      let trace = Tracegen.generate ~max_syncs:20_000 p in
      let census = Tracegen.depth_census trace in
      (* depth-1 fraction within 10 points of the profile *)
      Float.abs (census.(0) -. p.Profiles.depth_fractions.(0)) < 0.10)

let prop_trace_deterministic =
  QCheck.Test.make ~name:"same seed, same trace" ~count:10 profile_arb (fun p ->
      let a = Tracegen.generate ~seed:5 ~max_syncs:2_000 p in
      let b = Tracegen.generate ~seed:5 ~max_syncs:2_000 p in
      a.Tracegen.ops = b.Tracegen.ops)

let test_trace_scaling () =
  let p = Option.get (Profiles.find "jax") in
  let trace = Tracegen.generate ~max_syncs:10_000 p in
  let acquires = Tracegen.acquire_count trace in
  check "scaled to cap" true (acquires >= 10_000 && acquires < 11_000);
  check "hot set small" true (Tracegen.distinct_objects_touched trace < 200)

(* Every profile's default-size trace at seeds 1998 and 7, pinned by
   length, pool and an order-sensitive checksum of its ops: a change to
   how the generator lays out its output must leave every trace
   identical op for op. *)
let generator_pins =
  [
    ("trans", 1998, 200000, 5642, -4436012644426568031);
    ("javac", 1998, 200000, 2887, 1282469251811323245);
    ("jacorb", 1998, 200000, 1157, -3070695148649781015);
    ("javaparser", 1998, 200000, 4405, 2727079146982733441);
    ("jobe", 1998, 1242, 31, 2723274662642122053);
    ("toba", 1998, 200000, 4393, 1263314102070293613);
    ("javalex", 1998, 200000, 523, 3752934398088952717);
    ("jax", 1998, 200000, 23, -125042395271671115);
    ("javacup", 1998, 181146, 12243, 1698490960726993465);
    ("netrexx", 1998, 200000, 7258, -4039134120422613247);
    ("espresso", 1998, 200000, 7172, 4353126165922270213);
    ("hashjava", 1998, 200000, 7215, -4453057408360762539);
    ("crema", 1998, 200000, 3432, -3457044755818987311);
    ("janet", 1998, 200000, 3717, 3778413930737023425);
    ("javadoc", 1998, 200000, 4941, -3303231050797887615);
    ("javap", 1998, 46738, 234, 4431271273563285017);
    ("mocha", 1998, 24060, 448, -3702354428586497099);
    ("wingdis", 1998, 200000, 17359, -1870732148261786919);
    ("trans", 7, 200000, 5642, -1482569534972887395);
    ("javac", 7, 200000, 2887, 3488118905861536745);
    ("jacorb", 7, 200000, 1157, -4320839900324654759);
    ("javaparser", 7, 200000, 4405, -1128008342761499935);
    ("jobe", 7, 1242, 31, 3250504034347803685);
    ("toba", 7, 200000, 4393, -1008595953172290671);
    ("javalex", 7, 200000, 523, -2886121355139349807);
    ("jax", 7, 200000, 23, 3083026903564575721);
    ("javacup", 7, 181146, 12243, -4559743215509466071);
    ("netrexx", 7, 200000, 7258, 67323708441573573);
    ("espresso", 7, 200000, 7172, 1803574119102290757);
    ("hashjava", 7, 200000, 7215, 2764048261953766281);
    ("crema", 7, 200000, 3432, 782282007910573757);
    ("janet", 7, 200000, 3717, 4049225699736252361);
    ("javadoc", 7, 200000, 4941, -1389921336978061027);
    ("javap", 7, 46738, 234, -4064754999382799167);
    ("mocha", 7, 24060, 448, -1153841281394552563);
    ("wingdis", 7, 200000, 17359, -4128902540085820571);
  ]

let ops_checksum ops =
  Array.fold_left (fun h op -> (h * 1_000_003) lxor (op land 0xffff_ffff)) 0x811c9dc5 ops

let test_trace_pinned () =
  List.iter
    (fun (name, seed, length, pool, sum) ->
      let trace = Tracegen.generate ~seed (Option.get (Profiles.find name)) in
      let what = Printf.sprintf "%s seed %d" name seed in
      check_int (what ^ " length") length (Array.length trace.Tracegen.ops);
      check_int (what ^ " pool") pool trace.Tracegen.pool_size;
      check_int (what ^ " checksum") sum (ops_checksum trace.Tracegen.ops))
    generator_pins

(* --- trace serialization --- *)

let prop_trace_io_roundtrip =
  QCheck.Test.make ~name:"trace text round trip" ~count:18 profile_arb (fun p ->
      let trace = Tracegen.generate ~max_syncs:2_000 p in
      let back = Trace_io.of_string (Trace_io.to_string trace) in
      back.Tracegen.ops = trace.Tracegen.ops
      && back.Tracegen.pool_size = trace.Tracegen.pool_size
      && String.equal back.Tracegen.profile.Profiles.name p.Profiles.name)

let test_trace_io_errors () =
  let expect_parse_error text =
    match Trace_io.of_string text with
    | _ -> Alcotest.failf "expected parse error on %S" text
    | exception Trace_io.Parse_error _ -> ()
  in
  expect_parse_error "";
  expect_parse_error "not a trace";
  expect_parse_error "# thinlocks-trace v1\nprofile x\n+1 -1\n" (* missing pool *);
  expect_parse_error "# thinlocks-trace v1\nprofile x\npool 1\n+2 -2\n" (* out of pool *);
  expect_parse_error "# thinlocks-trace v1\nprofile x\npool 1\n-1 +1\n" (* bad nesting *);
  expect_parse_error "# thinlocks-trace v1\nprofile x\npool 1\n+1\n" (* left held *)

(* Adversarial trace generator: random balanced episode sequences over
   a random pool, independent of Tracegen's own statistics — so the
   codec round trip is tested on shapes the profile generator would
   never produce (tiny pools, deep uniform nesting, op lines long
   enough to wrap). *)
let balanced_ops_arb =
  let open QCheck.Gen in
  let gen =
    let* pool_size = int_range 1 8 in
    let* episodes = int_range 0 60 in
    let* ops =
      flatten_l
        (List.init episodes (fun _ ->
             let* idx = int_range 1 pool_size in
             let* depth = int_range 1 4 in
             return (List.init depth (fun _ -> idx) @ List.init depth (fun _ -> -idx))))
    in
    let trace =
      {
        Tracegen.profile = Option.get (Profiles.find "jax");
        pool_size;
        ops = Array.of_list (List.concat ops);
      }
    in
    return trace
  in
  QCheck.make gen ~print:(fun t ->
      Printf.sprintf "pool %d, %d ops" t.Tracegen.pool_size (Array.length t.Tracegen.ops))

let prop_trace_io_roundtrip_adversarial =
  QCheck.Test.make ~name:"trace text round trip (adversarial shapes)" ~count:100
    balanced_ops_arb (fun trace ->
      let back = Trace_io.of_string (Trace_io.to_string trace) in
      back.Tracegen.ops = trace.Tracegen.ops
      && back.Tracegen.pool_size = trace.Tracegen.pool_size)

let prop_trace_io_rejects_unbalanced =
  QCheck.Test.make ~name:"unbalanced mutation is rejected" ~count:50 balanced_ops_arb
    (fun trace ->
      (* leave object 1 held at end of an otherwise valid trace *)
      let text = Trace_io.to_string trace ^ "+1\n" in
      match Trace_io.of_string text with
      | _ -> false
      | exception Trace_io.Parse_error _ -> true)

let test_trace_io_file_roundtrip () =
  let p = Option.get (Profiles.find "mocha") in
  let trace = Tracegen.generate ~max_syncs:1_000 p in
  let path = Filename.temp_file "thinlocks" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save path trace;
      let back = Trace_io.load path in
      check "ops equal" true (back.Tracegen.ops = trace.Tracegen.ops))

(* --- replay --- *)

let test_replay_balances_under_all_schemes () =
  let p = Option.get (Profiles.find "javalex") in
  let trace = Tracegen.generate ~max_syncs:5_000 p in
  List.iter
    (fun scheme_name ->
      let runtime = Runtime.create () in
      let scheme = Tl_baselines.Registry.find_exn scheme_name runtime in
      let env = Runtime.main_env runtime in
      let result = Replay.run ~scheme ~env trace in
      let s = result.Replay.stats in
      check_int
        (scheme_name ^ " acquires = trace acquires")
        (Tracegen.acquire_count trace)
        (Tl_core.Lock_stats.total_acquires s);
      let releases =
        s.Tl_core.Lock_stats.releases_fast + s.Tl_core.Lock_stats.releases_nested
        + s.Tl_core.Lock_stats.releases_fat
      in
      check_int (scheme_name ^ " releases balance") (Tracegen.acquire_count trace) releases)
    [ "thin"; "jdk111"; "ibm112"; "fat"; "mcs"; "thin-count2" ]

let test_calibrate_work () =
  Alcotest.(check (float 1e-9)) "unattainable -> 0" 0.0
    (Replay.calibrate_work ~cost_fast:1.0 ~cost_slow:2.0 ~target_speedup:1.0);
  let w = Replay.calibrate_work ~cost_fast:1.0 ~cost_slow:3.0 ~target_speedup:1.5 in
  Alcotest.(check (float 1e-9)) "solves the ratio" 1.5 ((3.0 +. w) /. (1.0 +. w));
  check "iterations conversion monotone" true
    (Replay.work_iterations_for_seconds 1e-6 <= Replay.work_iterations_for_seconds 1e-5)

(* --- micro kernels --- *)

let test_micro_kernels_run () =
  let runtime = Runtime.create () in
  let scheme = Tl_baselines.Registry.find_exn "thin" runtime in
  List.iter
    (fun kernel ->
      let m = Micro.run ~runs:1 ~iterations:2_000 ~scheme ~runtime kernel in
      check (Micro.kernel_name kernel ^ " positive time") true (m.Micro.seconds >= 0.0))
    Micro.all_kernels

let test_micro_parse_roundtrip () =
  List.iter
    (fun kernel ->
      match Micro.parse_kernel (Micro.kernel_name kernel) with
      | Some k -> check "roundtrip" true (k = kernel)
      | None -> Alcotest.failf "cannot parse %s" (Micro.kernel_name kernel))
    (Micro.all_kernels @ [ Micro.Multi_sync 117; Micro.Threads 9 ]);
  check "garbage rejected" true (Micro.parse_kernel "bogus" = None);
  check "bad arg rejected" true (Micro.parse_kernel "threads:x" = None)

let test_micro_direct_flavour () =
  let runtime = Runtime.create () in
  let ctx = Tl_core.Thin.create runtime in
  let env = Runtime.main_env runtime in
  let module D = Micro.Direct (Tl_core.Thin) in
  let m = D.run ~runs:1 ~iterations:2_000 ~ctx ~env Micro.Sync in
  check "direct runs" true (m.Micro.seconds >= 0.0);
  match D.run ~runs:1 ~iterations:10 ~ctx ~env (Micro.Threads 2) with
  | _ -> Alcotest.fail "Threads must be rejected in direct flavour"
  | exception Invalid_argument _ -> ()

(* --- reports (smoke: they run and contain expected anchors) --- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  loop 0

let test_reports_smoke () =
  let t1 = Report.table1 ~max_syncs:2_000 () in
  check "table1 mentions javalex" true (contains ~needle:"javalex" t1);
  let f3 = Report.fig3 ~max_syncs:2_000 () in
  check "fig3 mentions median" true (contains ~needle:"median first-lock fraction" f3);
  let ab = Report.count_width_ablation ~max_syncs:2_000 () in
  check "ablation lists width 2" true (contains ~needle:"2" ab);
  let ch = Report.characterize ~max_syncs:2_000 () in
  check "characterize lists scenario 1" true (contains ~needle:"unlocked object" ch)

let test_monitor_lifecycle_report () =
  let r = Report.monitor_lifecycle ~cycles:50 ~threads:2 () in
  List.iter
    (fun needle -> check ("lifecycle reports " ^ needle) true (contains ~needle r))
    [ "deflations, non-quiescent"; "aborted deflation handshakes"; "reaper scans" ]

(* --- policy lab --- *)

let thin = Tl_baselines.Registry.find_entry_exn "thin"
let run_policy policy trace = Policy_lab.run_one ~reap:(Policy_lab.Reap_fixed policy) thin trace

let test_policy_lab_scores () =
  let p = Option.get (Profiles.find "javacup") in
  let trace = Tracegen.generate ~max_syncs:2_000 p in
  List.iter
    (fun policy ->
      let s = run_policy policy trace in
      let name = s.Policy_lab.policy in
      check_int (name ^ " sees every acquire") (Tracegen.acquire_count trace)
        s.Policy_lab.acquires;
      check (name ^ " fast ratio sane") true
        (s.Policy_lab.fast_ratio >= 0.0 && s.Policy_lab.fast_ratio <= 1.0);
      check (name ^ " no drops") true (s.Policy_lab.dropped = 0);
      check (name ^ " javacup inflates under 1-bit counts") true
        (s.Policy_lab.inflations > 0))
    Tl_lifecycle.Policy.shipped;
  (* never deflates nothing; always-idle undoes inflations *)
  let never = run_policy Tl_lifecycle.Policy.never trace in
  check_int "never: zero deflations" 0 never.Policy_lab.deflations;
  let idle = run_policy Tl_lifecycle.Policy.always_idle trace in
  check "always-idle deflates" true (idle.Policy_lab.deflations > 0);
  check "thrash only with deflation" true (never.Policy_lab.thrash = 0.0)

let test_policy_lab_table () =
  let t = Policy_lab.table ~max_syncs:2_000 thin in
  List.iter
    (fun needle -> check ("lab table has " ^ needle) true (contains ~needle t))
    ([ "fast %"; "fat-res"; "thrash/1k"; "ranking:"; "javalex"; "javacup"; "mocha" ]
    @ List.map (fun p -> p.Tl_lifecycle.Policy.name) Tl_lifecycle.Policy.shipped)

let test_policy_lab_policy_of_string () =
  List.iter
    (fun p ->
      (* physical equality: Policy.t holds a closure, so (=) would trap *)
      check ("parses " ^ p.Tl_lifecycle.Policy.name) true
        (match Tl_lifecycle.Policy.of_string p.Tl_lifecycle.Policy.name with
        | Some q -> q == p
        | None -> false))
    Tl_lifecycle.Policy.shipped;
  check "garbage rejected" true (Tl_lifecycle.Policy.of_string "bogus" = None)

(* --- the fiber storm over every scheme --- *)

(* A small traced storm per registry entry (nosync excepted: it is not
   a monitor): every fiber completes, an evaporating table drains, and
   the stream verifies clean under the oracle with the scheme's own
   protocol.  MCS is the regression case for the carrier
   rule: its queue spin must yield through the fiber parker, or a
   waiter never lets a holder on the same carrier run. *)
let test_storm_every_scheme () =
  List.iter
    (fun name ->
      let entry = Tl_baselines.Registry.find_entry_exn name in
      let config =
        { Fiber_storm.default_config with fibers = 4_000; in_flight = 256; scheme = entry }
      in
      let r = Fiber_storm.run config in
      check_int (name ^ " completes every fiber") config.fibers r.Fiber_storm.completed;
      check_int (name ^ " leaks nothing") 0 r.Fiber_storm.leaked_entries;
      check_int (name ^ " drops nothing") 0 r.Fiber_storm.dropped;
      match r.Fiber_storm.oracle with
      | Some rep ->
          if not (Tl_events.Oracle.ok rep) then
            Alcotest.failf "%s storm stream rejected: %s" name
              (Format.asprintf "%a" Tl_events.Oracle.pp rep)
      | None -> Alcotest.failf "%s traced storm returned no oracle verdict" name)
    (List.filter
       (fun n -> not (String.equal n "nosync"))
       (Tl_baselines.Registry.names ()))

(* The storm's latency summary (integer ns, one radix sort, sorted
   reads, µs last) against [Stats.percentile] over the same samples in
   µs.  Samples mix zeros, duplicates and values past 2^33 ns (the
   radix sort's third digit); lists of one sample occur too. *)
let prop_latency_tail_matches_percentile =
  let sample =
    QCheck.Gen.(
      oneof
        [
          return 0;
          int_range 0 2_000;
          int_range 0 100_000_000;
          int_range (1 lsl 33) (1 lsl 40);
          oneofl [ 1 lsl 33; (1 lsl 33) - 1; 999; 1_000 ];
        ])
  in
  QCheck.Test.make ~name:"latency tail = Stats.percentile in us" ~count:500
    QCheck.(
      make ~print:Print.(list int)
        Gen.(oneof [ map (fun x -> [ x ]) sample; list_size (int_range 1 300) sample ]))
    (fun ns ->
      let us = Array.of_list (List.map (fun x -> float_of_int x /. 1e3) ns) in
      let tail = Fiber_storm.latency_tail (Array.of_list ns) in
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
      close tail.Fiber_storm.p50 (Tl_util.Stats.percentile us 50.0)
      && close tail.p99 (Tl_util.Stats.percentile us 99.0)
      && close tail.p999 (Tl_util.Stats.percentile us 99.9)
      && close tail.max (Tl_util.Stats.percentile us 100.0))

let () =
  Alcotest.run "workload"
    [
      ( "profiles",
        [
          Alcotest.test_case "paper aggregates" `Quick test_profile_aggregates;
          Alcotest.test_case "fig5 medians" `Quick test_fig5_medians;
          Alcotest.test_case "find" `Quick test_find;
        ] );
      ( "tracegen",
        [
          QCheck_alcotest.to_alcotest prop_trace_balanced;
          QCheck_alcotest.to_alcotest prop_trace_depth_census;
          QCheck_alcotest.to_alcotest prop_trace_deterministic;
          Alcotest.test_case "scaling" `Quick test_trace_scaling;
          Alcotest.test_case "pinned at seeds 1998 and 7" `Quick test_trace_pinned;
        ] );
      ( "trace io",
        [
          QCheck_alcotest.to_alcotest prop_trace_io_roundtrip;
          QCheck_alcotest.to_alcotest prop_trace_io_roundtrip_adversarial;
          QCheck_alcotest.to_alcotest prop_trace_io_rejects_unbalanced;
          Alcotest.test_case "parse errors" `Quick test_trace_io_errors;
          Alcotest.test_case "file round trip" `Quick test_trace_io_file_roundtrip;
        ] );
      ( "replay",
        [
          Alcotest.test_case "balances under every scheme" `Slow
            test_replay_balances_under_all_schemes;
          Alcotest.test_case "work calibration" `Quick test_calibrate_work;
        ] );
      ( "micro",
        [
          Alcotest.test_case "all kernels run" `Slow test_micro_kernels_run;
          Alcotest.test_case "kernel name parse roundtrip" `Quick test_micro_parse_roundtrip;
          Alcotest.test_case "direct flavour" `Quick test_micro_direct_flavour;
        ] );
      ( "reports",
        [
          Alcotest.test_case "smoke" `Slow test_reports_smoke;
          Alcotest.test_case "monitor lifecycle" `Slow test_monitor_lifecycle_report;
        ] );
      ( "policy lab",
        [
          Alcotest.test_case "scores" `Slow test_policy_lab_scores;
          Alcotest.test_case "table" `Slow test_policy_lab_table;
          Alcotest.test_case "policy parse" `Quick test_policy_lab_policy_of_string;
        ] );
      (* group labels stay within ten characters: a longer one widens
         Alcotest's label column and truncates the other test names *)
      ( "storm",
        [
          Alcotest.test_case "every registry scheme" `Slow test_storm_every_scheme;
          QCheck_alcotest.to_alcotest prop_latency_tail_matches_percentile;
        ] );
    ]
