(* The steady-state benchmark: one process per workload.

     dune exec ./benchmark/run.exe -- \
       --workload NAME --seconds T [--seed S] [--trace 0|1] [--smoke]

   An untraced run (--trace 0) measures the end-to-end metrics; a
   traced run (--trace 1) measures the per-layer metrics and writes its
   spans to _build/bench/spans-NAME.tsv.  Either way every metric is
   printed as "workload/metric value unit", and the last line of
   standard output is one JSON object {correct, attempted, failed,
   metrics}.  The exit code is 1 when any pass fails its correctness
   gate.

   It calls only the system's public entry points
   (Tracegen.generate, Parallel_replay.run/decompose, Registry.find_exn,
   Thin.create_with with Scheme_intf.pack, Reaper.on_quiescence,
   Controller.create, Fiber_storm.run, Sink/Oracle) and times them from
   outside.  A run makes two discarded warm-up passes, then passes until
   T seconds have elapsed (run_seconds in BENCHMARK.json); each metric
   is a median over passes.  See benchmark/README.md for the workloads,
   metrics and measured spreads. *)

module Runtime = Tl_runtime.Runtime
module Thin = Tl_core.Thin
module Scheme_intf = Tl_core.Scheme_intf
module Lock_stats = Tl_core.Lock_stats
module Controller = Tl_lifecycle.Controller
module PR = Tl_workload.Parallel_replay
module FS = Tl_workload.Fiber_storm
module Tracegen = Tl_workload.Tracegen
module Sink = Tl_events.Sink
module Oracle = Tl_events.Oracle
module Timer = Tl_util.Timer

(* ---------- workloads ---------- *)

type replay = { domains : int; mode : PR.mode; reap : bool }
type kind = Replay of replay | Storm

let workloads =
  let replay domains mode reap = Replay { domains; mode; reap } in
  [
    ("uncontended-1d", replay 1 PR.Affinity false);
    ("uncontended-2d", replay 2 PR.Affinity false);
    ("contended-2d", replay 2 PR.Shuffle true);
    ("storm-1d", Storm);
  ]

type sizes = {
  syncs : int;  (** acquires in the replayed javalex trace *)
  event_syncs : int;  (** acquires in the smaller trace the events rung replays *)
  fibers : int;  (** fibers per storm pass *)
  setups : int;  (** trace generations (and decompositions) timed per run *)
  min_passes : int;  (** measured passes even when --seconds runs out first *)
}

let full = { syncs = 1_000_000; event_syncs = 50_000; fibers = 200_000; setups = 3; min_passes = 5 }
let smoke = { syncs = 100_000; event_syncs = 10_000; fibers = 20_000; setups = 1; min_passes = 1 }
let tick_every = 64

(* ---------- timing and sample helpers ---------- *)

let since t0 = Int64.to_float (Timer.elapsed_ns ~since:t0) /. 1e9

let timed f =
  let t0 = Timer.now_ns () in
  let r = f () in
  (r, since t0)

let median = function [] -> 0.0 | xs -> Tl_util.Stats.median (Array.of_list xs)

let percentile (xs : int array) p =
  if Array.length xs = 0 then 0.0 else Tl_util.Stats.percentile (Array.map float_of_int xs) p

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let extra (s : Lock_stats.snapshot) key =
  Option.value ~default:0 (List.assoc_opt key s.Lock_stats.extra)

let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> 0.0
          | Some l -> (
              match String.split_on_char ':' l with
              | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" (fun kb -> float_of_int kb /. 1024.0)
              | _ -> find ())
        in
        find ())
  with Sys_error _ -> 0.0

(* A fixed-capacity sample buffer, written by one domain. *)
type samples = { data : int array; mutable n : int }

let samples cap = { data = Array.make (max 1 cap) 0; n = 0 }
let push s v = if s.n < Array.length s.data then (s.data.(s.n) <- v; s.n <- s.n + 1)
let merged f ps = Array.concat (Array.to_list (Array.map (fun p -> Array.sub (f p).data 0 (f p).n) ps))

(* ---------- spans (traced runs only) ---------- *)

type span = { id : int; parent : int; name : string; pass : int; domain : int; t0 : int64; t1 : int64 }

let tracing = ref false
let spans = ref []
let spans_lock = Mutex.create ()
let next_span = Atomic.make 1

(* Written by the main domain before a pass starts its workers. *)
let pass_span = ref 0
let pass_no = ref 0

let add_span ~id ~parent ~name t0 t1 =
  let s = { id; parent; name; pass = !pass_no; domain = (Domain.self () :> int); t0; t1 } in
  Mutex.protect spans_lock (fun () -> spans := s :: !spans)

let span name f =
  if not !tracing then f 0
  else begin
    let id = Atomic.fetch_and_add next_span 1 in
    let t0 = Timer.now_ns () in
    let r = f id in
    add_span ~id ~parent:0 ~name t0 (Timer.now_ns ());
    r
  end

let worker_span name t0 t1 =
  add_span ~id:(Atomic.fetch_and_add next_span 1) ~parent:!pass_span ~name t0 t1

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_spans path =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tparent\tname\tpass\tdomain\tstart_ns\tend_ns\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%Ld\t%Ld\n" s.id s.parent s.name s.pass s.domain
            s.t0 s.t1)
        (List.rev !spans))

(* ---------- per-domain probes ---------- *)

(* Each worker domain of a pass claims one probe the first time it
   looks in domain-local storage: Parallel_replay spawns fresh domains
   for every pass, so no claim outlives its pass.  [batch] holds the
   time between a domain's consecutive quiescence ticks — the latency
   of one 64-op batch, quiescence work included; the other buffers are
   filled by traced passes only. *)
type probe = {
  mutable last_tick : int64;
  mutable ops : int;
  batch : samples;
  tick : samples;
  acq : samples;
  rel : samples;
}

let fresh_probe ~ticks ~sampled =
  { last_tick = 0L; ops = 0; batch = samples ticks; tick = samples ticks;
    acq = samples sampled; rel = samples sampled }

let pass_probes = ref [||]
let claimed = Atomic.make 0
let probe_key = Domain.DLS.new_key (fun () -> !pass_probes.(Atomic.fetch_and_add claimed 1))
let probe () = Domain.DLS.get probe_key

let install_probes ~domains ~ops =
  let ps =
    Array.init domains (fun _ -> fresh_probe ~ticks:((ops / tick_every) + 2) ~sampled:((ops / 64) + 2))
  in
  pass_probes := ps;
  Atomic.set claimed 0;
  ps

let note_batch p now =
  if p.last_tick <> 0L then push p.batch (Int64.to_int (Int64.sub now p.last_tick));
  p.last_tick <- now

let plain_tick runtime env =
  note_batch (probe ()) (Timer.now_ns ());
  Runtime.quiescence_point ~env runtime

let traced_tick runtime env =
  let p = probe () in
  let t0 = Timer.now_ns () in
  note_batch p t0;
  Runtime.quiescence_point ~env runtime;
  let t1 = Timer.now_ns () in
  push p.tick (Int64.to_int (Int64.sub t1 t0));
  if p.tick.n land 255 = 0 then worker_span "lifecycle.tick" t0 t1

(* Time 1 op in 64 through the packed closures; keep 1 in 4096 as a span. *)
let wrap (s : Scheme_intf.packed) =
  let timed_op buf name op env obj =
    let p = probe () in
    p.ops <- p.ops + 1;
    if p.ops land 63 <> 0 then op env obj
    else begin
      let t0 = Timer.now_ns () in
      op env obj;
      let t1 = Timer.now_ns () in
      push (buf p) (Int64.to_int (Int64.sub t1 t0));
      if p.ops land 4095 = 0 then worker_span name t0 t1
    end
  in
  {
    s with
    Scheme_intf.acquire = timed_op (fun p -> p.acq) "core.acquire" s.Scheme_intf.acquire;
    release = timed_op (fun p -> p.rel) "core.release" s.Scheme_intf.release;
  }

(* ---------- metrics, gates and pass loops ---------- *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(* Ops attempted, and ops in passes that failed their gate. *)
let attempted = ref 0
let failed = ref 0

let gate ~ops ok =
  attempted := !attempted + ops;
  if not ok then failed := !failed + ops

(* Two warm-up passes (a storm's first passes still grow the heap),
   then passes until [budget] seconds have elapsed (at least [min] of
   them); a full collection before each keeps one pass's garbage out of
   the next.  Also returns the peak RSS after the first [min] passes: a
   fixed amount of work, so the figure does not grow with the number of
   passes a fast host fits in. *)
let passes ~budget ~min pass =
  for _ = 1 to 2 do
    Gc.full_major ();
    ignore (pass ())
  done;
  let t0 = Timer.now_ns () in
  let rss = ref 0.0 in
  let rec go acc n =
    if n = min then rss := peak_rss_mb ();
    if n >= min && since t0 >= budget then List.rev acc
    else begin
      Gc.full_major ();
      go (pass () :: acc) (n + 1)
    end
  in
  let runs = go [] 0 in
  (runs, !rss)

(* Rungs run round-robin, whole rounds, until [budget] seconds have
   elapsed (at least one round).  A rung returns named values; the
   result looks up every value one rung/name produced. *)
let rounds ~budget rungs =
  let tbl = Hashtbl.create 16 in
  let round () =
    List.iter
      (fun (rung, run) ->
        Gc.full_major ();
        incr pass_no;
        List.iter
          (fun (k, v) ->
            let key = (rung, k) in
            Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
          (span rung (fun _ -> run ())))
      rungs
  in
  let t0 = Timer.now_ns () in
  round ();
  while since t0 < budget do
    round ()
  done;
  fun rung k -> Option.value ~default:[] (Hashtbl.find_opt tbl (rung, k))

(* ---------- replays ---------- *)

let javalex =
  match Tl_workload.Profiles.find "javalex" with
  | Some p -> p
  | None -> failwith "javalex profile missing"

(* Generate the trace [sizes.setups] times (one seed, one trace) and
   return it with the median generation time.  Collecting before each
   drops the previous generation's garbage, so peak memory reflects one
   trace, not several. *)
let generate ~sizes ~seed ~syncs =
  let trace = ref None in
  let times =
    List.init sizes.setups (fun _ ->
        Gc.full_major ();
        span "workload.tracegen" (fun _ ->
            let t, s = timed (fun () -> Tracegen.generate ~seed ~max_syncs:syncs javalex) in
            trace := Some t;
            s))
  in
  (Option.get !trace, median times)

let workload_scheme ?(events = Sink.disabled) rp runtime =
  let ctx = Thin.create_with ~events runtime in
  let controller =
    if not rp.reap then None
    else begin
      let nshards = Tl_monitor.Montable.shard_count (Thin.montable ctx) in
      let c = Controller.create ~nshards () in
      Tl_lifecycle.Reaper.on_quiescence ~controller:c runtime ctx;
      Some c
    end
  in
  (Scheme_intf.pack ~deflate_idle:(Thin.deflate_idle ctx) (module Thin) ctx, controller)

type replay_pass = {
  result : PR.result;
  wall : float;  (** the whole Parallel_replay.run call *)
  controller : Controller.t option;
  probes : probe array;
}

(* The replay gate: every op and acquire of the trace ran, and (with
   statistics on) the Lock_stats acquire and release totals balance. *)
let replay_ok ~stats trace (r : PR.result) =
  let s = r.PR.stats in
  let releases = s.Lock_stats.releases_fast + s.releases_nested + s.releases_fat in
  r.PR.ops = Array.length trace.Tracegen.ops
  && r.PR.acquires = Tracegen.acquire_count trace
  && ((not stats) || (Lock_stats.total_acquires s = r.PR.acquires && releases = r.PR.acquires))

let run_replay ?(traced = false) ?(stats = true) ?controller rp ~scheme ~runtime trace =
  let ps = install_probes ~domains:rp.domains ~ops:(Array.length trace.Tracegen.ops) in
  let tick = if traced then traced_tick runtime else plain_tick runtime in
  let config =
    { PR.default_config with PR.domains = rp.domains; mode = rp.mode; tick_every }
  in
  let scheme = if traced then wrap scheme else scheme in
  let result, wall = timed (fun () -> PR.run ~config ~tick ~scheme ~runtime trace) in
  gate ~ops:result.PR.ops (replay_ok ~stats trace result);
  { result; wall; controller; probes = ps }

let workload_pass ?traced rp trace =
  let runtime = Runtime.create () in
  let scheme, controller = workload_scheme rp runtime in
  run_replay ?traced ?controller rp ~scheme ~runtime trace

let ops_per_s p = float_of_int p.result.PR.ops /. p.result.PR.elapsed

let replay_e2e ~sizes ~seed ~seconds rp =
  let trace, tracegen_s = generate ~sizes ~seed ~syncs:sizes.syncs in
  let runs, rss = passes ~budget:seconds ~min:sizes.min_passes (fun () -> workload_pass rp trace) in
  let med f = median (List.map f runs) in
  [
    m "ops_per_s" "1/s" (med ops_per_s);
    m "lat_p99_us" "us" (med (fun p -> percentile (merged (fun pr -> pr.batch) p.probes) 99.0 /. 1e3));
    (* trace generation, plus what each pass spends outside its timed
       window: decomposition, object pool, deques, statistics reset *)
    m "setup_s" "s" (tracegen_s +. med (fun p -> p.wall -. p.result.PR.elapsed));
    m "peak_rss_mb" "MB" rss;
  ]

(* The layer ladder: the same affinity replay under nosync (harness
   only), thin without statistics, and thin, at 1 and 2 domains. *)
let ladder_rows ~budget trace =
  let ns_per_op name domains () =
    let runtime = Runtime.create () in
    let rp = { domains; mode = PR.Affinity; reap = false } in
    let scheme = Tl_baselines.Registry.find_exn name runtime in
    let p = run_replay ~stats:(name = "thin") rp ~scheme ~runtime trace in
    [ ("ns", p.result.PR.elapsed *. 1e9 /. float_of_int p.result.PR.ops) ]
  in
  let schemes = [ "nosync"; "thin-nostats"; "thin" ] in
  let rung s d = (Printf.sprintf "ladder.%s.%dd" s d, ns_per_op s d) in
  let get = rounds ~budget (List.concat_map (fun d -> List.map (fun s -> rung s d) schemes) [ 1; 2 ]) in
  let ns s d = median (get (fst (rung s d)) "ns") in
  List.concat_map
    (fun d ->
      let harness = ns "nosync" d and nostats = ns "thin-nostats" d and thin = ns "thin" d in
      [
        m (Printf.sprintf "harness.ns_per_op.%dd" d) "ns" harness;
        m (Printf.sprintf "lock.ns_per_op.%dd" d) "ns" (nostats -. harness);
        m (Printf.sprintf "stats.ns_per_op.%dd" d) "ns" (thin -. nostats);
      ])
    [ 1; 2 ]

(* Core, workload, runtime, monitor and lifecycle rows, then the
   ladder.  The rows come from the replay's own passes, with and
   without the probes, alternating (their elapsed-time ratio is the
   tracing overhead). *)
let replay_rows ~sizes ~seed ~budget rp =
  let trace, tracegen_s = generate ~sizes ~seed ~syncs:sizes.syncs in
  let decompose_s =
    median
      (List.init sizes.setups (fun _ ->
           span "workload.decompose" (fun _ -> snd (timed (fun () -> PR.decompose trace)))))
  in
  let toggle = ref false in
  let runs, _ =
    passes ~budget:(0.6 *. budget) ~min:(2 * sizes.min_passes) (fun () ->
        toggle := not !toggle;
        incr pass_no;
        let traced = !toggle in
        span (if traced then "pass.traced" else "pass.untraced") (fun id ->
            pass_span := id;
            (traced, workload_pass ~traced rp trace)))
  in
  let traced = List.filter_map (fun (t, p) -> if t then Some p else None) runs in
  let untraced = List.filter_map (fun (t, p) -> if t then None else Some p) runs in
  let med f = median (List.map f traced) in
  let stat f = med (fun p -> f p.result.PR.stats) in
  let count f = stat (fun s -> float_of_int (f s)) in
  let pct buf q = med (fun p -> percentile (merged buf p.probes) q) in
  let busy p = Array.fold_left (fun a t -> a +. t.PR.busy) 0.0 p.result.PR.tallies in
  let max_busy p = Array.fold_left (fun a t -> Float.max a t.PR.busy) 0.0 p.result.PR.tallies in
  let tick_s p = float_of_int (Array.fold_left ( + ) 0 (merged (fun pr -> pr.tick) p.probes)) /. 1e9 in
  let ctl f = med (fun p -> Option.fold ~none:0.0 ~some:f p.controller) in
  let shard_sum f c = Array.fold_left (fun a s -> a + f s) 0 (Controller.snapshot c) in
  let elapsed ps = median (List.map (fun p -> p.result.PR.elapsed) ps) in
  [
    m "core.acquire_ns_p50" "ns" (pct (fun pr -> pr.acq) 50.0);
    m "core.acquire_ns_p99" "ns" (pct (fun pr -> pr.acq) 99.0);
    m "core.release_ns_p50" "ns" (pct (fun pr -> pr.rel) 50.0);
    m "core.release_ns_p99" "ns" (pct (fun pr -> pr.rel) 99.0);
    m "core.fast_ratio" "frac" (stat PR.fast_ratio);
    m "core.contended_episodes" "count" (count (fun s -> s.Lock_stats.contended_episodes));
    m "core.spins_per_episode" "count"
      (stat (fun s -> ratio s.Lock_stats.contended_spins s.contended_episodes));
    m "core.inflations_contention" "count" (count (fun s -> s.Lock_stats.inflations_contention));
    m "workload.tracegen_s" "s" tracegen_s;
    m "workload.decompose_s" "s" decompose_s;
    m "workload.steals" "count" (med (fun p -> float_of_int p.result.PR.steals));
    m "workload.idle_frac" "frac"
      (med (fun p -> 1.0 -. (busy p /. (float_of_int rp.domains *. p.result.PR.elapsed))));
    m "runtime.spawn_join_ms" "ms" (med (fun p -> (p.result.PR.elapsed -. max_busy p) *. 1e3));
    m "monitor.fat_queued_frac" "frac"
      (stat (fun s ->
           ratio s.Lock_stats.acquires_fat_queued (s.acquires_fat_fast + s.acquires_fat_queued)));
    m "monitor.slot_reuses" "count" (count (fun s -> extra s "monitors.slot_reuses"));
    m "monitor.spin_avoided_parks" "count" (count (fun s -> extra s "fatlock.spin_avoided_parks"));
    m "lifecycle.tick_us_p50" "us" (pct (fun pr -> pr.tick) 50.0 /. 1e3);
    m "lifecycle.tick_us_p99" "us" (pct (fun pr -> pr.tick) 99.0 /. 1e3);
    m "lifecycle.tick_busy_frac" "frac" (med (fun p -> tick_s p /. busy p));
    m "lifecycle.deflations" "count" (count (fun s -> s.Lock_stats.deflations));
    m "lifecycle.aborted_handshakes" "count" (count (fun s -> extra s "deflation.aborted_handshakes"));
    m "lifecycle.reinflations_per_deflation" "frac"
      (ctl (fun c ->
           ratio (shard_sum (fun s -> s.Controller.reinflations) c)
             (shard_sum (fun s -> s.Controller.deflations) c)));
    m "lifecycle.policy_switches" "count" (ctl (fun c -> float_of_int (Controller.switches_total c)));
    m "trace.overhead_frac" "frac" ((elapsed traced /. elapsed untraced) -. 1.0);
  ]
  @ ladder_rows ~budget:(0.4 *. budget) trace

(* The events rung: a smaller trace of the same seed replayed untraced,
   then with a lock-event sink, then the drained stream through the
   oracle (strict on one domain, relaxed above).  The verdict is
   counted, not gated: this rung measures the tracing layer's cost. *)
let events_rows ~sizes ~seed ~budget rp =
  let trace = Tracegen.generate ~seed ~max_syncs:sizes.event_syncs javalex in
  let untraced () = [ ("elapsed", (workload_pass rp trace).result.PR.elapsed) ] in
  let traced () =
    let sink = Sink.create ~ring_capacity:((4 * Array.length trace.Tracegen.ops) + 4096) () in
    let runtime = Runtime.create () in
    Runtime.set_event_sink runtime sink;
    let scheme, controller = workload_scheme ~events:sink rp runtime in
    let p = run_replay ?controller rp ~scheme ~runtime trace in
    let drained = Sink.drain sink in
    let n = float_of_int (Array.length drained.Sink.events) in
    let mode = if rp.domains = 1 then Oracle.Strict else Oracle.Relaxed in
    let report, verify = timed (fun () -> Oracle.check ~mode ~count_width:8 drained) in
    [
      ("elapsed", p.result.PR.elapsed);
      ("events", n);
      ("dropped", float_of_int (Sink.total_dropped sink));
      ("verify_ns", verify *. 1e9 /. Float.max 1.0 n);
      ("unclean", if Oracle.ok report then 0.0 else 1.0);
    ]
  in
  let get = rounds ~budget [ ("events.untraced", untraced); ("events.traced", traced) ] in
  let med k = median (get "events.traced" k) in
  let sum k = List.fold_left ( +. ) 0.0 (get "events.traced" k) in
  let emit = (med "elapsed" -. median (get "events.untraced" "elapsed")) *. 1e9 in
  [
    m "events.per_pass" "count" (med "events");
    m "events.dropped" "count" (sum "dropped");
    m "events.emit_ns_per_event" "ns" (emit /. Float.max 1.0 (med "events"));
    m "events.verify_ns_per_event" "ns" (med "verify_ns");
    m "events.unclean_verdicts" "count" (sum "unclean");
    (* no fibers in an OS-domain replay *)
    m "fiber.yield_cost_frac" "frac" 0.0;
    m "fiber.overflow_waits" "count" 0.0;
  ]

(* ---------- the fiber storm ---------- *)

let storm_config ~sizes ~seed =
  {
    FS.default_config with
    FS.fibers = sizes.fibers;
    domains = 1;
    objects = 1024;
    zipf = 0.99;
    yield_in_cs = true;
    in_flight = 4096;
    seed;
  }

(* The storm gate: every fiber completed, nothing was dropped or
   leaked, and (when verified) the oracle's verdict is clean. *)
let storm_pass ?(trace = true) ?(oracle = true) config =
  let oracle = trace && oracle in
  let r, wall = timed (fun () -> FS.run ~trace ~oracle config) in
  let clean = match r.FS.oracle with Some rep -> Oracle.ok rep | None -> not oracle in
  gate ~ops:r.FS.ops
    (r.FS.completed = config.FS.fibers && r.FS.dropped = 0 && r.FS.leaked_entries = 0 && clean);
  (r, wall)

(* Pass k draws its storm from seed [1000 * seed + k].  A storm's
   throughput and memory depend on its draw (peak RSS ranged from 297 to
   408 MB over twenty seeds, and repeats exactly at one seed), so a run
   takes its median over many draws rather than betting on one. *)
let storm_e2e ~sizes ~seed ~seconds =
  let k = ref 0 in
  let pass () =
    incr k;
    storm_pass (storm_config ~sizes ~seed:((1000 * seed) + !k))
  in
  let runs, rss = passes ~budget:seconds ~min:sizes.min_passes pass in
  let med f = median (List.map f runs) in
  [
    m "ops_per_s" "1/s" (med (fun (r, _) -> r.FS.ops_per_sec));
    m "lat_p99_us" "us" (med (fun (r, _) -> r.FS.p99_us));
    (* Fiber_storm.run outside its admission window: runtime, sink and
       scheduler set-up, then drain and the oracle's verdict *)
    m "setup_s" "s" (med (fun (r, wall) -> wall -. r.FS.elapsed));
    m "peak_rss_mb" "MB" rss;
  ]

(* The storm's rows come from four rungs: the storm as measured,
   untraced, traced without the oracle, and untraced without yielding
   in the critical section.  Fiber_storm.run reports its own acquire
   latencies, deflations and policy switches, but no Lock_stats, no
   harness tallies and no tick times, so the rows built on those read
   0 here: they are not measured on this workload. *)
let storm_not_measured =
  [
    ("core.release_ns_p50", "ns"); ("core.release_ns_p99", "ns"); ("core.fast_ratio", "frac");
    ("core.contended_episodes", "count"); ("core.spins_per_episode", "count");
    ("core.inflations_contention", "count"); ("workload.tracegen_s", "s");
    ("workload.decompose_s", "s"); ("workload.steals", "count"); ("workload.idle_frac", "frac");
    ("runtime.spawn_join_ms", "ms"); ("monitor.fat_queued_frac", "frac");
    ("monitor.slot_reuses", "count"); ("monitor.spin_avoided_parks", "count");
    ("lifecycle.tick_us_p50", "us"); ("lifecycle.tick_us_p99", "us");
    ("lifecycle.tick_busy_frac", "frac"); ("lifecycle.aborted_handshakes", "count");
    ("lifecycle.reinflations_per_deflation", "frac"); ("harness.ns_per_op.1d", "ns");
    ("lock.ns_per_op.1d", "ns"); ("stats.ns_per_op.1d", "ns"); ("harness.ns_per_op.2d", "ns");
    ("lock.ns_per_op.2d", "ns"); ("stats.ns_per_op.2d", "ns");
  ]

let storm_rows ~sizes ~seed ~budget =
  let config = storm_config ~sizes ~seed in
  let rung ?trace ?oracle config () =
    let r, wall = storm_pass ?trace ?oracle config in
    [
      ("window", r.FS.elapsed);
      ("wall", wall);
      ("p50_ns", r.FS.p50_us *. 1e3);
      ("p99_ns", r.FS.p99_us *. 1e3);
      ("deflations", float_of_int r.FS.deflations);
      ("switches", float_of_int r.FS.policy_switches);
      ("events", float_of_int r.FS.events);
      ("dropped", float_of_int r.FS.dropped);
      ("overflow", float_of_int r.FS.overflow_waits);
      ("unclean", if Option.fold ~none:true ~some:Oracle.ok r.FS.oracle then 0.0 else 1.0);
    ]
  in
  (* a discarded warm-up: the first storm of a process grows the heap *)
  ignore (storm_pass config);
  let get =
    rounds ~budget
      [
        ("storm", rung config);
        ("storm.untraced", rung ~trace:false config);
        ("storm.traced", rung ~oracle:false config);
        ("storm.noyield", rung ~trace:false { config with FS.yield_in_cs = false });
      ]
  in
  let med rung k = median (get rung k) in
  let sum rung k = List.fold_left ( +. ) 0.0 (get rung k) in
  let per_event s = s *. 1e9 /. Float.max 1.0 (med "storm" "events") in
  List.map (fun (name, unit) -> m name unit 0.0) storm_not_measured
  @ [
    m "core.acquire_ns_p50" "ns" (med "storm" "p50_ns");
    m "core.acquire_ns_p99" "ns" (med "storm" "p99_ns");
    m "lifecycle.deflations" "count" (med "storm" "deflations");
    m "lifecycle.policy_switches" "count" (med "storm" "switches");
    (* the storm rung is the measured workload itself: no probes added *)
    m "trace.overhead_frac" "frac" 0.0;
    m "fiber.yield_cost_frac" "frac"
      (1.0 -. (med "storm.noyield" "window" /. med "storm.untraced" "window"));
    m "fiber.overflow_waits" "count" (med "storm" "overflow");
    m "events.per_pass" "count" (med "storm" "events");
    m "events.dropped" "count" (sum "storm" "dropped" +. sum "storm.traced" "dropped");
    m "events.emit_ns_per_event" "ns"
      (per_event (med "storm.traced" "window" -. med "storm.untraced" "window"));
    m "events.verify_ns_per_event" "ns"
      (per_event (med "storm" "wall" -. med "storm.traced" "wall"));
    m "events.unclean_verdicts" "count" (sum "storm" "unclean");
  ]

(* ---------- main ---------- *)

let usage = "run.exe --workload NAME --seconds T [--seed S] [--trace 0|1] [--smoke]"

let () =
  let workload = ref "" and seed = ref 1998 and seconds = ref (-1.0) in
  let trace = ref 0 and small = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seconds", Arg.Set_float seconds, "T seconds of measured passes");
      ("--seed", Arg.Set_int seed, "S input seed (default 1998)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set small, " reduced sizes, for the smoke alias");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let kind =
    match List.assoc_opt !workload workloads with
    | Some k when (!trace = 0 || !trace = 1) && !seconds >= 0.0 -> k
    | _ ->
        Printf.eprintf "%s\nworkloads: %s\n" usage (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let sizes = if !small then smoke else full in
  let seconds = !seconds and seed = !seed in
  tracing := !trace = 1;
  let metrics =
    match (kind, !tracing) with
    | Replay rp, false -> replay_e2e ~sizes ~seed ~seconds rp
    | Storm, false -> storm_e2e ~sizes ~seed ~seconds
    | Replay rp, true ->
        replay_rows ~sizes ~seed ~budget:(0.7 *. seconds) rp
        @ events_rows ~sizes ~seed ~budget:(0.3 *. seconds) rp
    | Storm, true -> storm_rows ~sizes ~seed ~budget:seconds
  in
  if !tracing then write_spans (Printf.sprintf "_build/bench/spans-%s.tsv" !workload);
  List.iter (fun x -> Printf.printf "%s/%s %.6g %s\n" !workload x.name x.value x.unit) metrics;
  let correct = !failed = 0 && !attempted > 0 in
  (* JSON has no NaN or infinity; a degenerate ratio reads 0. *)
  let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let json =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value) x.unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 !attempted) !failed json;
  if not correct then exit 1
