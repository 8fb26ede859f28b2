(* Benchmark harness: one fixed-size run of the scenarios no other
   path measures — monitor-table and lifecycle ablations, tracing and
   oracle overhead, the cjm head-to-head, tid churn, fat-lock
   fairness, the deflation controller and the mini-JVM macros.  It
   prints each table and writes the gated numbers to BENCH.json, which
   tools/check.sh checks.

   The paper's tables and figures come from `thinlocks all` (plus
   `thinlocks policy-lab`); replay-par and the fiber storm are measured
   by the benchmark/ harness and gated by tools/check.sh against the
   CLI.

   Run with: dune exec bench/main.exe *)

module Runtime = Tl_runtime.Runtime
module Registry = Tl_baselines.Registry

let thin = Registry.find_entry_exn "thin"

let t_start = Unix.gettimeofday ()

let section title =
  let bar = String.make (String.length title) '=' in
  Printf.printf "\n[t=%.0fs] %s\n%s\n\n%!" (Unix.gettimeofday () -. t_start) title bar

(* --- Machine-readable results (BENCH.json) ---

   Sections push structured rows here as they print their human
   tables; the accumulated object is written once at the end of the
   run, so CI (tools/check.sh) and trend tooling can consume numbers
   without scraping stdout. *)

module J = Tl_util.Jsonout

let json_sections : (string * J.t) list ref = ref []
let add_json key v = json_sections := (key, v) :: !json_sections

let write_bench_json () =
  let doc =
    J.Obj
      [
        ("schema", J.Str "thinlocks-bench-v1");
        (* Scaling numbers are only meaningful relative to the cores
           actually available. *)
        ("cores", J.Int (Domain.recommended_domain_count ()));
        ("scenarios", J.Obj (List.rev !json_sections));
      ]
  in
  J.to_file "BENCH.json" doc;
  Printf.printf "\nwrote BENCH.json (%d scenario sections)\n%!" (List.length !json_sections)

(* Wall-clock cost of one thin lock+unlock pair on [obj], averaged over
   [pairs] pairs.  One untimed warm-up pair first: on a traced ctx the
   first emit lazily allocates and zeroes the tid's ring — page-fault
   cost that belongs to sink creation, not to the per-pair path. *)
let thin_pair_ns ~pairs ctx env obj =
  Tl_core.Thin.acquire ctx env obj;
  Tl_core.Thin.release ctx env obj;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to pairs do
    Tl_core.Thin.acquire ctx env obj;
    Tl_core.Thin.release ctx env obj
  done;
  1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int pairs

(* Deflation extension: an inflated lock pays the fat path forever;
   deflating at a quiescence point restores the thin fast path. *)
let bench_deflation () =
  section "Deflation extension (ns per lock+unlock)";
  let inflate ctx env obj =
    Tl_core.Thin.acquire ctx env obj;
    Tl_core.Thin.wait ~timeout:0.001 ctx env obj;
    Tl_core.Thin.release ctx env obj
  in
  let row label prepare =
    let runtime = Runtime.create () in
    let ctx =
      Tl_core.Thin.create_with
        ~config:{ Tl_core.Thin.default_config with record_stats = false }
        runtime
    in
    let env = Runtime.main_env runtime in
    let obj = Tl_heap.Heap.alloc (Tl_heap.Heap.create ()) in
    prepare ctx env obj;
    Printf.printf "  %-36s %8.1f ns\n%!" label (thin_pair_ns ~pairs:200_000 ctx env obj)
  in
  row "never-inflated" (fun _ _ _ -> ());
  row "inflated (paper: permanent)" inflate;
  row "deflated at quiescence (extension)" (fun ctx env obj ->
      inflate ctx env obj;
      assert (Tl_core.Thin.deflate_idle ctx obj));
  print_newline ()

(* Long-run stability: drive inflate/deflate cycles past the 2^23
   monitor-index ceiling that a leak-per-inflation design exhausts.
   The seed leaked one slot per inflation, so it would die at
   2^23 - 1 inflations; with reclamation the census sails past it
   while every cycle hands its one slot back (live ends at zero). *)
let bench_churn_stability () =
  section "Long-run stability: inflate/deflate churn past the 2^23 slot ceiling";
  let cycles = (1 lsl 23) + 4096 in
  let runtime = Runtime.create () in
  let config =
    { Tl_core.Thin.default_config with count_width = 1; record_stats = false }
  in
  let ctx = Tl_core.Thin.create_with ~config runtime in
  let env = Runtime.main_env runtime in
  let obj = Tl_heap.Heap.alloc (Tl_heap.Heap.create ()) in
  let t0 = Unix.gettimeofday () in
  for cycle = 1 to cycles do
    Tl_core.Thin.acquire ctx env obj;
    Tl_core.Thin.acquire ctx env obj;
    Tl_core.Thin.acquire ctx env obj (* 1-bit count holds 0..1: third acquire overflows *);
    Tl_core.Thin.release ctx env obj;
    Tl_core.Thin.release ctx env obj;
    Tl_core.Thin.release ctx env obj;
    if not (Tl_core.Thin.deflate_idle ctx obj) then
      failwith (Printf.sprintf "deflation refused at cycle %d" cycle)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let table = Tl_core.Thin.montable ctx in
  let census = Tl_monitor.Montable.allocated table in
  let live = Tl_monitor.Montable.live table in
  let reuses = Tl_monitor.Montable.reuses table in
  Printf.printf
    "  %d inflate/deflate cycles in %.1fs (%.0f ns/cycle)\n\
    \  monitors allocated (census): %d   live: %d   slot reuses: %d\n\
    \  the seed design (slot leaked per inflation) would have exhausted the\n\
    \  table at inflation %d; this run performed %d inflations on one slot.\n\n%!"
    cycles elapsed
    (1e9 *. elapsed /. float_of_int cycles)
    census live reuses
    ((1 lsl 23) - 1)
    census;
  add_json "slot_churn"
    (J.Obj
       [
         ("cycles", J.Int cycles);
         ("census", J.Int census);
         ("live", J.Int live);
         ("reuses", J.Int reuses);
       ])

(* Generation-width ablation: how many ABA escapes do stale handles
   get as a function of generation bits?  Deterministic adversarial
   churn: every slot is freed and reallocated once per round, so the
   stored generation advances by exactly 1 per round and a stale
   (generation-0) handle wrongly resolves whenever the round count
   wraps the generation space — at every multiple of 2^width.  The
   escape rate over N rounds is then 1/2^width exactly, which the
   measurement must reproduce. *)
let bench_generation_width () =
  section "Ablation: generation width vs stale-handle ABA escapes";
  let slots = 256 in
  let rounds = 64 in
  Printf.printf "  %d slots, %d free/realloc churn rounds per slot, probing %d stale handles\n\n"
    slots rounds slots;
  Printf.printf "  %-10s %10s %12s %12s\n" "gen bits" "escapes" "rate" "expected";
  List.iter
    (fun width ->
      let table = Tl_monitor.Index_table.create ~max_index:slots ~generation_width:width ~shards:1 () in
      let stale = Array.init slots (fun _ -> Tl_monitor.Index_table.allocate table ()) in
      Array.iter (Tl_monitor.Index_table.free table) stale;
      let escapes = ref 0 and probes = ref 0 in
      for _round = 1 to rounds do
        let live = Array.init slots (fun _ -> Tl_monitor.Index_table.allocate table ()) in
        Array.iter
          (fun h ->
            incr probes;
            if Tl_monitor.Index_table.find table h <> None then incr escapes)
          stale;
        Array.iter (Tl_monitor.Index_table.free table) live
      done;
      (* The wrap fires at every multiple of 2^width within [rounds]. *)
      let expected = float_of_int (rounds / (1 lsl width)) /. float_of_int rounds in
      Printf.printf "  %-10d %10d %11.3f%% %11.3f%%\n" width !escapes
        (100.0 *. float_of_int !escapes /. float_of_int !probes)
        (100.0 *. expected))
    [ 0; 3; 5; 8 ];
  Printf.printf
    "\n  (0 bits = no reuse detection at all; the library default is 5 bits —\n\
    \   a stale handle escapes only if its slot is recycled exactly 2^5 times)\n\n%!"

(* Shard-count sensitivity: allocation throughput across the
   (shards x domains) grid, balanced (each domain hints its own index)
   and skewed (every domain hints shard 0, so every allocation AND
   every free — slots are striped by shard — lands on one mutex).  The
   balanced grid's 1-shard row is the seed's one-big-mutex table and its
   8-shard row the sharded default: the allocation-scaling comparison. *)
let bench_shard_sensitivity () =
  section "Monitor-table shard-count sensitivity (allocate+free ns/op per domain)";
  let iters = 10_000 in
  let shard_counts = [ 1; 2; 4; 8; 16 ] in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let grid label hint_of =
    Printf.printf "  %s\n" label;
    Printf.printf "  %-10s %s\n" "shards"
      (String.concat "" (List.map (fun d -> Printf.sprintf "%8dd" d) domain_counts));
    List.iter
      (fun shards ->
        Printf.printf "  %-10d" shards;
        List.iter
          (fun domains ->
            let runtime = Runtime.create () in
            let table = Tl_monitor.Index_table.create ~shards () in
            let t0 = Unix.gettimeofday () in
            Runtime.run_parallel ~backend:Runtime.Domain_backend runtime domains
              (fun i _env ->
                let hint = hint_of i in
                for _ = 1 to iters do
                  let h = Tl_monitor.Index_table.allocate ~shard_hint:hint table () in
                  Tl_monitor.Index_table.free table h
                done);
            let elapsed = Unix.gettimeofday () -. t0 in
            Printf.printf " %7.1f "
              (1e9 *. elapsed /. float_of_int (iters * domains)))
          domain_counts;
        print_newline ())
      shard_counts;
    print_newline ()
  in
  grid "balanced hints (domain i -> shard i)" (fun i -> i);
  grid "skewed hints (every domain -> shard 0: one stripe takes all traffic)" (fun _ -> 0);
  Printf.printf
    "  (balanced should flatten as shards >= domains — shards 1 is the seed's\n\
    \   single mutex, shards 8 the default; skewed shows the single-stripe\n\
    \   worst case that extra shards cannot fix)\n\n%!"

(* Lifecycle reaper under traffic: churner domains keep inflating a few
   shared objects while the main thread times the thin fast path on a
   private object — once with no reaper and once with an eager reaper
   deflating live monitors the whole time.  The reaper must produce
   non-quiescent deflations without moving the fast path. *)
(* The reaper's idle tick as its own layer: one quiescence point with
   the controlled reaper mounted (as the contended replay mounts it) on
   a table that has churned through 10k monitors and holds none.  The
   figure is the median over 51 batches of 1000 ticks, per tick. *)
let idle_tick_ns () =
  let runtime = Runtime.create () in
  (* a nest of three overflows a 1-bit count, so each object inflates *)
  let config = { Tl_core.Thin.default_config with count_width = 1 } in
  let ctx = Tl_core.Thin.create_with ~config runtime in
  let env = Runtime.main_env runtime in
  let table = Tl_core.Thin.montable ctx in
  let controller =
    Tl_lifecycle.Controller.create ~nshards:(Tl_monitor.Montable.shard_count table) ()
  in
  Tl_lifecycle.Reaper.on_quiescence ~controller runtime ctx;
  let heap = Tl_heap.Heap.create () in
  Array.iter
    (fun obj ->
      for _ = 1 to 3 do
        Tl_core.Thin.acquire ctx env obj
      done;
      for _ = 1 to 3 do
        Tl_core.Thin.release ctx env obj
      done)
    (Array.init 10_000 (fun _ -> Tl_heap.Heap.alloc heap));
  let rec drain ticks =
    if Tl_monitor.Montable.live table > 0 then begin
      if ticks = 0 then failwith "idle tick: the controlled reaper left monitors live";
      Runtime.quiescence_point ~env runtime;
      drain (ticks - 1)
    end
  in
  drain 1_000;
  let batch = 1_000 in
  Tl_util.Stats.median
    (Array.init 51 (fun _ ->
         let t0 = Tl_util.Timer.now_ns () in
         for _ = 1 to batch do
           Runtime.quiescence_point ~env runtime
         done;
         Int64.to_float (Tl_util.Timer.elapsed_ns ~since:t0) /. float_of_int batch))

let bench_reaper () =
  section "Lifecycle reaper: non-quiescent deflation under traffic";
  let churn_domains = 3 and nshared = 4 in
  let measure with_reaper =
    let runtime = Runtime.create () in
    let ctx = Tl_core.Thin.create runtime in
    let heap = Tl_heap.Heap.create () in
    let shared = Array.init nshared (fun _ -> Tl_heap.Heap.alloc heap) in
    let stop = Atomic.make false in
    let churners =
      List.init churn_domains (fun i ->
          Runtime.spawn ~name:(Printf.sprintf "churn-%d" i) ~backend:Runtime.Domain_backend
            runtime
            (fun env ->
              let j = ref 0 in
              while not (Atomic.get stop) do
                let obj = shared.((i + !j) mod nshared) in
                Tl_core.Thin.acquire ctx env obj;
                if !j mod 101 = 0 then Tl_core.Thin.wait ~timeout:0.0002 ctx env obj;
                Tl_core.Thin.release ctx env obj;
                incr j
              done))
    in
    let reaper =
      if with_reaper then
        Some (Tl_lifecycle.Reaper.start ~policy:Tl_lifecycle.Policy.always_idle ~interval:0.0 ctx)
      else None
    in
    let fast_ns =
      thin_pair_ns ~pairs:200_000 ctx (Runtime.main_env runtime) (Tl_heap.Heap.alloc heap)
    in
    Atomic.set stop true;
    List.iter Runtime.join churners;
    let totals = Option.map Tl_lifecycle.Reaper.stop reaper in
    (fast_ns, ctx, totals)
  in
  let fast_off, _, _ = measure false in
  let fast_on, ctx, totals = measure true in
  let extra key =
    let s = Tl_core.Lock_stats.snapshot (Tl_core.Thin.stats ctx) in
    Option.value ~default:0 (List.assoc_opt key s.Tl_core.Lock_stats.extra)
  in
  Printf.printf "  thin fast path, no reaper:   %8.1f ns per lock+unlock\n" fast_off;
  Printf.printf "  thin fast path, live reaper: %8.1f ns per lock+unlock\n\n" fast_on;
  (match totals with
  | Some t -> Format.printf "  reaper totals: %a@." Tl_lifecycle.Reaper.pp_scan t
  | None -> ());
  Printf.printf "  deflations.non_quiescent:      %d\n" (extra "deflations.non_quiescent");
  Printf.printf "  deflation.aborted_handshakes:  %d\n" (extra "deflation.aborted_handshakes");
  Printf.printf "  deflation.retired_monitor_retries: %d\n"
    (extra "deflation.retired_monitor_retries");
  Printf.printf "  reaper scans:                  %d\n" (extra "reaper.scans");
  let idle_tick = idle_tick_ns () in
  Printf.printf "  idle tick, controlled reaper:  %.1f ns (empty table after 10k monitors)\n"
    idle_tick;
  Printf.printf
    "\n  (deflations while lockers are running is the Tasuki-style extension at\n\
    \   work; the two fast-path numbers should agree within noise)\n\n%!";
  add_json "reaper"
    (J.Obj
       [
         ("fast_ns_no_reaper", J.Float fast_off);
         ("fast_ns_live_reaper", J.Float fast_on);
         ("deflations_non_quiescent", J.Int (extra "deflations.non_quiescent"));
         ("reaper_scans", J.Int (extra "reaper.scans"));
         ("idle_tick_ns", J.Float idle_tick);
       ])

(* Tracing overhead: the identical private-object lock/unlock loop
   with the event sink disabled vs enabled.  Disabled must be free —
   the ctx caches the enabled bit, so the fast path pays one load and
   an untaken branch.  Enabled is now an epoch-stamped single-writer
   ring append with no atomic read-modify-write (the old global order
   ticket serialized every emitting domain through one cache line);
   [enabled_ns] reports the overhead *delta* (enabled − disabled,
   clamped at 0), the number the always-on gate in tools/check.sh
   bounds, with the raw loop time kept as [enabled_total_ns].  Each
   loop is timed best-of-3: a delta of two timed loops is noise the
   min mostly cancels.  The ring is sized to hold the whole run so
   drops never skew the enabled number.

   The same scenario also records what a stream costs at rest — bytes
   per event under the text and binary codecs — and what the sampling
   modes keep, both measured over one small traced replay. *)
let bench_events_overhead () =
  section "Lock-event tracing overhead (thin fast path, ns per lock+unlock)";
  let pairs = 50_000 in
  let measure events =
    let runtime = Runtime.create () in
    let ctx = Tl_core.Thin.create_with ~events runtime in
    thin_pair_ns ~pairs ctx (Runtime.main_env runtime)
      (Tl_heap.Heap.alloc (Tl_heap.Heap.create ()))
  in
  let best_of_3 f =
    let a = f () and b = f () and c = f () in
    min a (min b c)
  in
  let off = best_of_3 (fun () -> measure Tl_events.Sink.disabled) in
  (* a fresh sink per repetition: rings are append-only *)
  let last_sink = ref None in
  let on =
    best_of_3 (fun () ->
        let sink = Tl_events.Sink.create ~ring_capacity:((2 * pairs) + 1024) () in
        last_sink := Some sink;
        measure sink)
  in
  let drained =
    match !last_sink with Some s -> Tl_events.Sink.drain s | None -> assert false
  in
  let recorded = Tl_events.Sink.length drained in
  let dropped = List.fold_left (fun a (_, n) -> a + n) 0 drained.Tl_events.Sink.dropped in
  (* the gated number: tracing overhead per *event* (each pair emits
     two), as the enabled-minus-disabled loop delta *)
  let delta_ev = Float.max 0.0 (on -. off) /. 2.0 in
  Printf.printf "  tracing disabled: %8.1f ns per lock+unlock\n" off;
  Printf.printf "  tracing enabled:  %8.1f ns per lock+unlock (%d events recorded, %d dropped)\n"
    on recorded dropped;
  Printf.printf "  overhead: %+.1f ns per pair, %.1f ns per event (%+.0f%%)\n\n%!" (on -. off)
    delta_ev
    (if off > 0.0 then 100.0 *. (on -. off) /. off else 0.0);
  (* codec sizes and sampling keep-ratios over one traced replay *)
  let profile =
    match Tl_workload.Profiles.find "javalex" with
    | Some p -> p
    | None -> failwith "bench_events_overhead: javalex profile missing"
  in
  let trace =
    Tl_workload.Tracegen.generate ~seed:77 ~max_syncs:3_000
      profile
  in
  let reap = Tl_workload.Policy_lab.Reap_fixed Tl_lifecycle.Policy.always_idle in
  let stream ?sampling () =
    (Tl_workload.Policy_lab.replay_traced ?sampling ~reap thin trace).drained
  in
  let full = stream () in
  let n_full = max 1 (Tl_events.Sink.length full) in
  let text_per =
    float_of_int (String.length (Tl_events.Codec.to_string full)) /. float_of_int n_full
  in
  let bin_per =
    float_of_int (String.length (Tl_events.Codec_bin.to_bytes full)) /. float_of_int n_full
  in
  let ratio d =
    float_of_int (Tl_events.Sink.length d) /. float_of_int n_full
  in
  let sampled_ratio = ratio (stream ~sampling:(Tl_events.Sink.One_in_n 8) ()) in
  let contended_ratio = ratio (stream ~sampling:Tl_events.Sink.Contended_only ()) in
  Printf.printf "  stream at rest (javalex, %d events):\n" n_full;
  Printf.printf "    text codec:   %6.1f bytes/event\n" text_per;
  Printf.printf "    binary codec: %6.1f bytes/event\n" bin_per;
  Printf.printf "    1-in-8 object sampling keeps %.1f%%, contended-only keeps %.1f%%\n\n%!"
    (100.0 *. sampled_ratio) (100.0 *. contended_ratio);
  add_json "events_overhead"
    (J.Obj
       [
         ("disabled_ns", J.Float off);
         ("enabled_ns", J.Float delta_ev);
         ("enabled_total_ns", J.Float on);
         ("events_recorded", J.Int recorded);
         ("events_dropped", J.Int dropped);
         ("text_bytes_per_event", J.Float text_per);
         ("bin_bytes_per_event", J.Float bin_per);
         ("sampled_ratio_1_in_8", J.Float sampled_ratio);
         ("contended_only_ratio", J.Float contended_ratio);
       ])

(* Oracle overhead: what a post-hoc verification pass costs relative
   to producing the stream.  One traced javacup replay, then the
   protocol oracle and the online residency monitor are
   each timed over the same drained stream.  The oracle must come back
   clean — a violation here means the replay path itself regressed, so
   it fails the bench run loudly rather than recording garbage ns. *)
let bench_oracle_overhead () =
  section "Protocol-oracle and residency-monitor overhead (ns per event)";
  let profile =
    match Tl_workload.Profiles.find "javacup" with
    | Some p -> p
    | None -> failwith "bench_oracle_overhead: javacup profile missing"
  in
  let trace = Tl_workload.Tracegen.generate ~seed:1998 ~max_syncs:8_000 profile in
  let reap = Tl_workload.Policy_lab.Reap_fixed Tl_lifecycle.Policy.always_idle in
  let t0 = Unix.gettimeofday () in
  let drained = (Tl_workload.Policy_lab.replay_traced ~reap thin trace).drained in
  let replay_s = Unix.gettimeofday () -. t0 in
  let events = Tl_events.Sink.length drained in
  let per_event seconds = 1e9 *. seconds /. float_of_int (max 1 events) in
  let time_pass f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let verify_s, report =
    time_pass (fun () -> Tl_events.Oracle.check ~count_width:1 drained)
  in
  let residency_s, summary = time_pass (fun () -> Tl_events.Residency.of_drained drained) in
  if not (Tl_events.Oracle.ok report) then begin
    Format.printf "%a@." Tl_events.Oracle.pp report;
    failwith "bench_oracle_overhead: oracle rejected a clean replay stream"
  end;
  Printf.printf "  stream: javacup, %d events (traced replay took %.1f ns/event)\n\n" events
    (per_event replay_s);
  Printf.printf "  %-26s %8.1f ns/event\n" "oracle" (per_event verify_s);
  Printf.printf "  %-26s %8.1f ns/event\n" "residency monitor" (per_event residency_s);
  Printf.printf
    "\n  (verification is clean on this stream; fat residency %.3f over %d objects)\n\n%!"
    summary.Tl_events.Residency.fat_residency report.Tl_events.Oracle.objects;
  add_json "oracle_overhead"
    (J.Obj
       [
         ("events", J.Int events);
         ("replay_ns_per_event", J.Float (per_event replay_s));
         ("verify_ns_per_event", J.Float (per_event verify_s));
         ("residency_ns_per_event", J.Float (per_event residency_s));
         ("violations", J.Int 0);
       ])

(* Contended-path backend fairness: parker (Mesa-style entry queue,
   barging) against hapax (constant-time FIFO ticket admission).  Two
   workers hammer one fat lock, stamping every arrival with a global
   fetch-and-add and every grant with its in-lock sequence number:
   adjacent grant pairs out of arrival order (inversions) quantify
   barging, which FIFO admission eliminates.  The backends' replay-par
   and fiber-storm runs are gated by tools/check.sh against the CLI. *)
let bench_fat_fairness () =
  section "Fat-lock contended path: parker vs hapax fairness";
  let fairness_rows = ref [] in
  let workers = 2 and ops = 3_000 in
  let spin n =
    let s = ref 0 in
    for i = 1 to n do
      s := !s + i
    done;
    ignore (Sys.opaque_identity !s)
  in
  Printf.printf "  fairness, %d workers x %d ops on one fat lock:\n" workers ops;
  Printf.printf "  %-10s %8s %10s %10s %10s\n" "backend" "grants" "inversions"
    "wait-p99us" "wait-maxus";
  List.iter
    (fun backend ->
      let backend_name = Tl_monitor.Fatlock.backend_name backend in
      let runtime = Runtime.create () in
      let fat = Tl_monitor.Fatlock.create ~backend () in
      let total = workers * ops in
      let arrivals = Atomic.make 0 in
      let gseq = ref 0 (* in-lock grant sequence: protected by [fat] *) in
      let stamp_of = Array.make total 0 in
      let wait_ns = Array.make total 0 in
      let ready = Atomic.make 0 in
      Runtime.run_parallel runtime workers (fun _ env ->
          (* Start barrier: without it the first worker's whole loop
             fits inside one timeslice and finishes before the second
             worker's thread is even scheduled — zero overlap, nothing
             measured. *)
          Atomic.incr ready;
          while Atomic.get ready < workers do
            Thread.yield ()
          done;
          for _ = 1 to ops do
            let stamp = Atomic.fetch_and_add arrivals 1 in
            let t0 = Tl_util.Timer.now_ns () in
            Tl_monitor.Fatlock.acquire env fat;
            let w = Tl_util.Timer.elapsed_ns ~since:t0 in
            let g = !gseq in
            incr gseq;
            stamp_of.(g) <- stamp;
            wait_ns.(g) <- Int64.to_int w;
            spin 64;
            (* Deschedule while holding: on a host with fewer cores
               than workers this is what makes the other worker arrive
               and block mid-hold, so release actually has someone to
               barge past (parker) or admit in order (hapax). *)
            Thread.yield ();
            Tl_monitor.Fatlock.release env fat;
            spin 16
          done);
      let inversions = ref 0 in
      for g = 0 to total - 2 do
        if stamp_of.(g + 1) < stamp_of.(g) then incr inversions
      done;
      let waits_us =
        Array.map (fun ns -> float_of_int ns /. 1e3) wait_ns
      in
      let p99 = Tl_util.Stats.percentile waits_us 99.0 in
      let wmax = Array.fold_left Float.max 0.0 waits_us in
      Printf.printf "  %-10s %8d %10d %10.1f %10.1f\n%!" backend_name total
        !inversions p99 wmax;
      fairness_rows :=
        J.Obj
          [
            ("backend", J.Str backend_name);
            ("workers", J.Int workers);
            ("grants", J.Int total);
            ("adjacent_inversions", J.Int !inversions);
            ( "inversion_rate",
              J.Float (float_of_int !inversions /. float_of_int total) );
            ("wait_p99_us", J.Float p99);
            ("wait_max_us", J.Float wmax);
            ("contended_episodes", J.Int (Tl_monitor.Fatlock.contended_episodes fat));
          ]
        :: !fairness_rows)
    Tl_monitor.Fatlock.all_backends;
  add_json "fat_backend" (J.Obj [ ("fairness", J.List (List.rev !fairness_rows)) ]);
  Printf.printf
    "\n  (inversions: adjacent grant pairs out of global arrival order — barging;\n\
    \   FIFO admission drives them to ~0 at the cost of handoff latency)\n\n%!"

(* Self-tuning deflation: the feedback controller against every fixed
   policy, with one shared default configuration across all workloads.
   Two arenas: the lab's macro traces (lab score + fat residency) and
   the fiber storm (acquire-latency tail).  tools/check.sh gates the
   controlled rows to <= 1.25x the per-workload best fixed policy —
   the "no per-workload configuration" acceptance bar. *)
let bench_controller () =
  section "Self-tuning deflation: feedback controller vs fixed policies";
  let module PL = Tl_workload.Policy_lab in
  let module FS = Tl_workload.Fiber_storm in
  let module Ctl = Tl_lifecycle.Controller in
  let shard_json (s : Ctl.shard_snapshot) =
    J.Obj
      [
        ("policy", J.Str (Ctl.policy_name s.Ctl.policy));
        ("switches", J.Int s.Ctl.switches);
        ("explorations", J.Int s.Ctl.explorations);
        ("epochs", J.Int s.Ctl.epochs);
        ("deflations", J.Int s.Ctl.deflations);
        ("reinflations", J.Int s.Ctl.reinflations);
      ]
  in
  let chosen_histogram shards =
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun (s : Ctl.shard_snapshot) ->
        let name = Ctl.policy_name s.Ctl.policy in
        Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
      shards;
    J.Obj (List.sort compare (Hashtbl.fold (fun k v acc -> (k, J.Int v) :: acc) tbl []))
  in
  (* --- macro-trace replays --- *)
  let max_syncs = 12_000 in
  let replay_rows = ref [] in
  Printf.printf "  macro traces, %d ops (score = slow-path%% + thrash/1k, lower better):\n"
    max_syncs;
  Printf.printf "  %-9s %-12s %9s %11s %7s %8s %8s %9s\n" "bench" "best-fixed"
    "best" "controlled" "ratio" "bestres" "ctlres" "switches";
  List.iter
    (fun bench ->
      let profile =
        match Tl_workload.Profiles.find bench with
        | Some p -> p
        | None -> failwith ("bench_controller: unknown benchmark " ^ bench)
      in
      let trace = Tl_workload.Tracegen.generate ~seed:1998 ~max_syncs profile in
      let fixed =
        List.map
          (fun policy -> PL.run_one ~reap:(PL.Reap_fixed policy) thin trace)
          Tl_lifecycle.Policy.shipped
      in
      let best =
        List.fold_left
          (fun acc s -> if PL.lab_score s < PL.lab_score acc then s else acc)
          (List.hd fixed) (List.tl fixed)
      in
      let reap = PL.Reap_controlled Ctl.default_config in
      let replayed = PL.replay_traced ~reap thin trace in
      let controller, ctl = (replayed.PL.controller, PL.score ~reap replayed) in
      let score_ratio = PL.lab_score ctl /. Float.max 1e-9 (PL.lab_score best) in
      let switches =
        match controller with Some c -> Ctl.switches_total c | None -> 0
      in
      let shards =
        match controller with Some c -> Ctl.snapshot c | None -> [||]
      in
      Printf.printf "  %-9s %-12s %9.2f %11.2f %7.3f %8.1f %8.1f %9d\n%!" bench
        best.PL.policy (PL.lab_score best) (PL.lab_score ctl) score_ratio
        best.PL.fat_residency ctl.PL.fat_residency switches;
      replay_rows :=
        J.Obj
          [
            ("bench", J.Str bench);
            ("best_fixed", J.Str best.PL.policy);
            ("best_score", J.Float (PL.lab_score best));
            ("controlled_score", J.Float (PL.lab_score ctl));
            ("score_ratio", J.Float score_ratio);
            ("best_fat_residency", J.Float best.PL.fat_residency);
            ("controlled_fat_residency", J.Float ctl.PL.fat_residency);
            ("controlled_thrash", J.Float ctl.PL.thrash);
            ("controlled_deflations", J.Int ctl.PL.deflations);
            ("policy_switches", J.Int switches);
            ("chosen_policies", chosen_histogram shards);
            ("shards", J.List (Array.to_list (Array.map shard_json shards)));
          ]
        :: !replay_rows)
    PL.default_benchmarks;
  (* --- the fiber storm: tail latency without per-workload tuning ---
     Single 20k-fiber storms swing by about 30% on a 2-vCPU host, so one
     controlled storm against the best of three fixed ones cannot
     decide the 1.25 gate.  [storm_rounds] interleaved rounds each run
     the controlled storm and the three fixed policies, in an order
     rotated per round; a round's ratio is its controlled p99 over its
     best fixed p99, and the gated figure is the median ratio. *)
  let storm_fibers = 20_000 and storm_rounds = 7 in
  let storm_one reap =
    let config =
      { FS.default_config with FS.fibers = storm_fibers; reap = PL.reap_of_string reap }
    in
    FS.run config
  in
  Printf.printf "\n  fiber storm, %d fibers, %d interleaved rounds (acquire-latency tail, us):\n"
    storm_fibers storm_rounds;
  Printf.printf "  %-5s %-12s %10s %10s %10s %8s %7s\n" "round" "reap" "p50" "p99" "p999"
    "defl" "oracle";
  let storm_row round reap (r : FS.result) =
    let clean =
      match r.FS.oracle with Some rep -> Tl_events.Oracle.ok rep | None -> true
    in
    Printf.printf "  %-5d %-12s %10.1f %10.1f %10.1f %8d %7s\n%!" round reap r.FS.p50_us
      r.FS.p99_us r.FS.p999_us r.FS.deflations
      (if clean then "clean" else "VIOLATION");
    J.Obj
      [
        ("round", J.Int round);
        ("reap", J.Str reap);
        ("p50_us", J.Float r.FS.p50_us);
        ("p99_us", J.Float r.FS.p99_us);
        ("p999_us", J.Float r.FS.p999_us);
        ("deflations", J.Int r.FS.deflations);
        ("reaper_scans", J.Int r.FS.reaper_scans);
        ("oracle_clean", J.Bool clean);
      ]
  in
  let reaps = [| "controlled"; "never"; "always-idle"; "idle-for-4" |] in
  (* round -> (ratio, best fixed p99, controlled run, controlled row, fixed rows) *)
  let rounds =
    List.init storm_rounds (fun round ->
        let n = Array.length reaps in
        let runs =
          List.init n (fun i ->
              let reap = reaps.((i + round) mod n) in
              let r = storm_one reap in
              (reap, r, storm_row round reap r))
        in
        let _, ctl_run, ctl_row = List.find (fun (reap, _, _) -> reap = "controlled") runs in
        let fixed = List.filter (fun (reap, _, _) -> reap <> "controlled") runs in
        let best_p99 =
          List.fold_left (fun acc (_, r, _) -> Float.min acc r.FS.p99_us) infinity fixed
        in
        let ratio = ctl_run.FS.p99_us /. Float.max 1e-9 best_p99 in
        (ratio, best_p99, ctl_run, ctl_row, List.map (fun (_, _, row) -> row) fixed))
  in
  let by_ratio = List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> Float.compare a b) rounds in
  let ratios = List.map (fun (ratio, _, _, _, _) -> ratio) by_ratio in
  (* the median round stands for the storm: its ratio is the gated one *)
  let tail_ratio, best_p99, ctl_run, ctl_row, _ = List.nth by_ratio (storm_rounds / 2) in
  let ctl_shards = Option.value ~default:[||] ctl_run.FS.controller in
  Printf.printf
    "  controlled p99 = %.3fx best fixed (median of %d rounds; ratios %s); %d policy \
     switch(es) in the median round; chosen policies %s\n\n%!"
    tail_ratio storm_rounds
    (String.concat " " (List.map (Printf.sprintf "%.3f") ratios))
    ctl_run.FS.policy_switches
    (String.concat " "
       (Array.to_list
          (Array.map
             (fun (s : Ctl.shard_snapshot) -> Ctl.policy_name s.Ctl.policy)
             ctl_shards)));
  add_json "controller"
    (J.Obj
       [
         ("replays", J.List (List.rev !replay_rows));
         ( "storm",
           J.Obj
             [
               ("fibers", J.Int storm_fibers);
               ("rounds", J.Int storm_rounds);
               ("fixed", J.List (List.concat_map (fun (_, _, _, _, rows) -> rows) rounds));
               ("controlled", ctl_row);
               ( "controlled_rounds",
                 J.List (List.map (fun (_, _, _, row, _) -> row) rounds) );
               ("best_fixed_p99_us", J.Float best_p99);
               ("tail_ratio_p99", J.Float tail_ratio);
               ("tail_ratios", J.List (List.map (fun r -> J.Float r) ratios));
               ("tail_ratio_min", J.Float (List.hd ratios));
               ("tail_ratio_max", J.Float (List.nth ratios (storm_rounds - 1)));
               ("policy_switches", J.Int ctl_run.FS.policy_switches);
               ("chosen_policies", chosen_histogram ctl_shards);
               ( "shards",
                 J.List (Array.to_list (Array.map shard_json ctl_shards)) );
             ] );
       ])

(* CJM head-to-head: the headline table for the headerless scheme.
   The Table 2 Sync, NestedSync and MixedSync kernels
   ({!Tl_workload.Micro}, median of 3) across thin, fat and cjm — thin
   pays a header CAS per pair, fat an OS-monitor call, cjm a striped
   hash-table claim. *)
let bench_cjm_micro () =
  section "CJM head-to-head: headerless table vs header word (ns per op)";
  let module M = Tl_workload.Micro in
  let rows = ref [] in
  Printf.printf "  %-12s %10s %10s %10s\n" "kernel" "thin" "fat" "cjm";
  List.iter
    (fun kernel ->
      Printf.printf "  %-12s" (M.kernel_name kernel);
      List.iter
        (fun scheme_name ->
          let runtime = Runtime.create () in
          let scheme = Registry.find_exn scheme_name runtime in
          let m = M.run ~iterations:200_000 ~scheme ~runtime kernel in
          Printf.printf " %10.1f" m.M.ns_per_iteration;
          rows :=
            J.Obj
              [
                ("kernel", J.Str (M.kernel_name kernel));
                ("scheme", J.Str scheme_name);
                ("ns_per_op", J.Float m.M.ns_per_iteration);
              ]
            :: !rows)
        [ "thin"; "fat"; "cjm" ];
      Printf.printf "\n%!")
    [ M.Sync; M.Nested_sync; M.Mixed_sync ];
  add_json "cjm_micro" (J.List (List.rev !rows));
  Printf.printf
    "  (the header-footprint tradeoff in numbers: cjm spends zero object\n\
    \   header bits and pays the table claim on every pair; thin spends 24\n\
    \   header bits and pays one CAS; fat pays the monitor call outright)\n\n%!"

(* Tid lease churn: allocate/release cost as a function of how many
   indices are already live.  The free list is O(1), so the line
   should be flat — this is the regression gate for satellite work on
   the allocator. *)
let bench_tid_churn () =
  section "Tid lease churn: allocate+release cost vs live indices (ns/cycle)";
  let module Tid = Tl_runtime.Tid in
  let cycles = 200_000 in
  let rows = ref [] in
  Printf.printf "  %-12s %12s\n" "live" "ns/cycle";
  List.iter
    (fun live ->
      let t = Tid.create_table () in
      let held =
        Array.init live (fun i -> Tid.allocate t ~name:(Printf.sprintf "held-%d" i))
      in
      (* prime the free list so the loop exercises recycle, not fresh *)
      let d0 = Tid.allocate t ~name:"churn" in
      Tid.release t d0;
      let t0 = Tl_util.Timer.now () in
      for _ = 1 to cycles do
        let d = Tid.allocate t ~name:"churn" in
        Tid.release t d
      done;
      let dt = Tl_util.Timer.now () -. t0 in
      let ns = 1e9 *. dt /. float_of_int cycles in
      Printf.printf "  %-12d %12.1f\n%!" live ns;
      Array.iter (fun d -> Tid.release t d) held;
      rows :=
        J.Obj
          [
            ("scenario", J.Str "tid-churn");
            ("live", J.Int live);
            ("cycles", J.Int cycles);
            ("ns_per_cycle", J.Float ns);
          ]
        :: !rows)
    [ 0; 1_000; 8_000; Tid.max_index - 1 ];
  add_json "tid_churn" (J.List (List.rev !rows));
  Printf.printf
    "  (flat line = O(1) allocate: a FIFO free list and an epoch bump,\n\
    \   independent of how many of the 2^15 indices are currently leased)\n\n%!"

(* Mini-JVM macro benchmarks: the paper's actual methodology — real
   (mini-Java) programs with synchronized library calls, timed under
   each scheme.  Programs ship in examples/programs, read relative to
   the repository root. *)
let bench_vm_macros () =
  section "Mini-JVM macro benchmarks: program wall time per scheme";
  let dir = "examples/programs" in
  let programs =
    [ "javalex_like.mj"; "jax_like.mj"; "compilerish.mj"; "hashjava_like.mj" ]
  in
  Printf.printf "%-18s %10s %10s %10s %10s %8s\n" "program" "jdk111" "ibm112" "thin"
    "speedup" "syncs";
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      if Sys.file_exists path then begin
        let source = In_channel.with_open_bin path In_channel.input_all in
        let timed scheme_name =
          let t0 = Unix.gettimeofday () in
          let vm =
            Tl_lang.Driver.run_source ~scheme_of:(Tl_baselines.Registry.find_exn scheme_name)
              source
          in
          (Unix.gettimeofday () -. t0, Tl_jvm.Vm.sync_op_count vm)
        in
        (* median of 3 like the paper's methodology (median of samples) *)
        let median scheme_name =
          let samples = Array.init 3 (fun _ -> timed scheme_name) in
          let times = Array.map fst samples in
          Array.sort Float.compare times;
          (times.(1), snd samples.(0))
        in
        let t_jdk, syncs = median "jdk111" in
        let t_ibm, _ = median "ibm112" in
        let t_thin, _ = median "thin" in
        Printf.printf "%-18s %9.3fs %9.3fs %9.3fs %9.2fx %8d\n%!" file t_jdk t_ibm t_thin
          (t_jdk /. t_thin) syncs
      end
      else Printf.printf "%-18s (source not found, skipped)\n" file)
    programs;
  print_newline ()

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: main.exe (no arguments: one fixed-size run)";
    exit 2
  end;
  section "Thin Locks reproduction - benchmark harness";
  bench_generation_width ();
  bench_shard_sensitivity ();
  bench_reaper ();
  bench_deflation ();
  bench_churn_stability ();
  bench_events_overhead ();
  bench_oracle_overhead ();
  bench_cjm_micro ();
  bench_tid_churn ();
  bench_fat_fairness ();
  bench_controller ();
  bench_vm_macros ();
  write_bench_json ();
  Printf.printf "\ndone.\n"
