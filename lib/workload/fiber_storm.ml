(* The fiber storm: an open-loop workload that pushes the fiber
   runtime to a million lightweight threads contending for the locks
   of any registry scheme.

   A generator fiber admits up to [in_flight] worker fibers at a time
   (an admission window — completions return their slot and unpark the
   generator), optionally pacing admissions as a Poisson process.
   Each worker fiber picks objects by Zipf popularity, runs a critical
   section between the scheme's acquire and release, optionally burning
   work and {e yielding while holding} inside it — parking contenders on
   the inflated monitor and exercising cross-suspension lock handoff —
   and then thinks.

   Every acquire is individually timed into a preallocated flat array
   (one fetch-and-add per op), so the run reports not just throughput
   but the acquire-latency tail (p50/p99/p999), which is where a
   scheduler that livelocks or a lock that convoys shows up first.

   A traced storm spreads its events over up to [in_flight] recycled
   tids plus the system stream.  Rings grow with the events they are
   given, so the storm predicts none of that traffic: every ring gets
   one generous cap, [ring_cap], which bounds a runaway ring and never
   binds a real run (a tid records a few events per lease segment, the
   system stream a few per quiescence point, overflow or deflation),
   and the memory tracing costs, [buffered_words], follows the events
   actually written. *)

open Tl_runtime
module Scheduler = Tl_fiber.Scheduler
module Sink = Tl_events.Sink
module Oracle = Tl_events.Oracle
module Controller = Tl_lifecycle.Controller

type config = {
  fibers : int;  (** total fibers over the whole run *)
  domains : int;  (** carrier domains *)
  objects : int;  (** shared lock objects *)
  zipf : float;  (** popularity skew exponent; 0 = uniform *)
  ops_per_fiber : int;  (** lock/unlock episodes per fiber *)
  critical_work : int;  (** spin units while holding *)
  think_work : int;  (** spin units between episodes *)
  yield_in_cs : bool;  (** suspend while holding (manufactures parking) *)
  arrival_rate : float;  (** admissions/sec, Poisson; 0 = window-limited *)
  in_flight : int;  (** admission window: max live worker fibers *)
  quiescence_every : int;  (** announce every N admissions; 0 = auto *)
  scheme : Tl_baselines.Registry.entry;  (** the lock under the storm *)
  reap : Policy_lab.reap option;
      (** deflation under the storm (None = leave monitors fat); scans
          ride the quiescence announcements *)
  seed : int;
}

let default_config =
  {
    fibers = 100_000;
    domains = 1;
    objects = 1024;
    zipf = 0.99;
    ops_per_fiber = 1;
    critical_work = 32;
    think_work = 64;
    yield_in_cs = true;
    arrival_rate = 0.0;
    in_flight = 4096;
    quiescence_every = 0;
    scheme = Tl_baselines.Registry.find_entry_exn "thin";
    reap = None;
    seed = 0x57084;
  }

type result = {
  config : config;
  elapsed : float;
  ops : int;
  ops_per_sec : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  max_us : float;
  completed : int;
  overflow_waits : int;
  sched : Scheduler.counts;  (** the scheduler's dispatches, yields, suspends *)
  distinct_tids : int;
  events : int;
  dropped : int;
  buffered_words : int;  (** event storage the sink allocated, in words *)
  evaporates : bool;  (** the scheme's monitors evaporate: it keeps a table census *)
  leaked_entries : int;
  reaper_scans : int;  (** census walks run by the reaper (0 without one) *)
  deflations : int;  (** monitors the scheme retired, from its statistics *)
  controller : Controller.shard_snapshot array option;
      (** per-shard controller state at storm end ([Reap_controlled]) *)
  policy_switches : int;  (** controller switches over the whole storm *)
  oracle : Oracle.report option;
}

let validate c =
  if c.fibers < 1 then invalid_arg "Fiber_storm: fibers";
  if c.domains < 1 then invalid_arg "Fiber_storm: domains";
  if c.objects < 1 then invalid_arg "Fiber_storm: objects";
  if c.ops_per_fiber < 1 then invalid_arg "Fiber_storm: ops_per_fiber";
  if c.in_flight < 1 then invalid_arg "Fiber_storm: in_flight";
  if c.zipf < 0.0 then invalid_arg "Fiber_storm: zipf"

(* Zipf sampling over [n] ranks via the precomputed CDF and a binary
   search per draw — [Prng.categorical] is a linear scan, far too slow
   for millions of draws over a thousand objects. *)
let zipf_cdf ~theta n =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let sample_cdf cdf u =
  let n = Array.length cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

type latency_tail = { p50 : float; p99 : float; p999 : float; max : float }

(* One radix sort of the integer samples, then four reads of the sorted
   array; microseconds only at the end. *)
let latency_tail ns =
  let n = Array.length ns in
  if n = 0 then { p50 = 0.0; p99 = 0.0; p999 = 0.0; max = 0.0 }
  else begin
    Tl_util.Stats.sort_nonneg_ints ns;
    let us p = Tl_util.Stats.percentile_sorted_ints ns p /. 1e3 in
    { p50 = us 50.0; p99 = us 99.0; p999 = us 99.9; max = float_of_int ns.(n - 1) /. 1e3 }
  end

(* Events per ring before drops: 16M, or 256 MB of one ring's slots —
   a cap, not a reservation. *)
let ring_cap = 1 lsl 24

let run ?(trace = true) ?(oracle = true) config =
  validate config;
  let runtime = Runtime.create () in
  let sink = if trace then Sink.create ~ring_capacity:ring_cap () else Sink.disabled in
  (* the runtime-level sink is where overflow marks land *)
  Runtime.set_event_sink runtime sink;
  let scheme = config.scheme.make ~events:sink runtime in
  let controller = Policy_lab.attach_reaper ?reap:config.reap runtime scheme in
  let heap = Tl_heap.Heap.create () in
  let total_ops = config.fibers * config.ops_per_fiber in
  (* integer nanoseconds on the monotonic clock: gettimeofday's µs
     granularity would floor sub-µs acquires to exactly 0 and make the
     p50 a lie *)
  let latencies = Array.make total_ops 0 in
  let lat_n = Atomic.make 0 in
  let record_latency t0 =
    latencies.(Atomic.fetch_and_add lat_n 1) <-
      Int64.to_int (Tl_util.Timer.elapsed_ns ~since:t0)
  in
  let completed = Atomic.make 0 in
  let cdf = zipf_cdf ~theta:config.zipf config.objects in
  let (elapsed, overflow_waits), sched =
    Scheduler.run_counted ~domains:config.domains runtime (fun genv ->
        let objs = Tl_heap.Heap.alloc_many heap config.objects in
        let slots = Atomic.make config.in_flight in
        let gen_parker = genv.Runtime.parker in
        let storm_fiber i env =
          let prng = Tl_util.Prng.create (config.seed lxor (i * 0x9E3779B1)) in
          for _ = 1 to config.ops_per_fiber do
            let o = objs.(sample_cdf cdf (Tl_util.Prng.float prng 1.0)) in
            if config.think_work > 0 then Replay.spin_work config.think_work;
            (* One timed lock episode: the sample covers entry, until
               this fiber holds the monitor. *)
            let t0 = Tl_util.Timer.now_ns () in
            scheme.acquire env o;
            record_latency t0;
            if config.critical_work > 0 then Replay.spin_work config.critical_work;
            if config.yield_in_cs then Scheduler.yield ();
            scheme.release env o
          done;
          Atomic.incr completed;
          (* return the admission slot and wake the generator *)
          Atomic.incr slots;
          Parker.unpark gen_parker
        in
        let quiescence_every =
          if config.quiescence_every > 0 then config.quiescence_every
          else max 1024 (config.fibers / 64)
        in
        let arrival = Tl_util.Prng.create (config.seed lxor 0x5bf0a8) in
        let t0 = Tl_util.Timer.now () in
        let next_arrival = ref t0 in
        for i = 0 to config.fibers - 1 do
          (* admission window *)
          while Atomic.get slots <= 0 do
            Parker.park gen_parker
          done;
          Atomic.decr slots;
          (* Poisson pacing (exponential inter-arrivals) *)
          if config.arrival_rate > 0.0 then begin
            let u = Tl_util.Prng.float arrival 1.0 in
            next_arrival :=
              !next_arrival +. (-.log (1.0 -. u) /. config.arrival_rate);
            let delay = !next_arrival -. Tl_util.Timer.now () in
            if delay > 0.0 then Scheduler.sleep delay
          end;
          ignore (Scheduler.spawn ~name:"storm" (storm_fiber i) : unit -> unit);
          if (i + 1) mod quiescence_every = 0 then
            Runtime.quiescence_point ~env:genv runtime
        done;
        (* wait out the tail: every completion unparks us *)
        while Atomic.get completed < config.fibers do
          Parker.park gen_parker
        done;
        let elapsed = Tl_util.Timer.now () -. t0 in
        Runtime.quiescence_point ~env:genv runtime;
        (elapsed, Scheduler.overflow_waits ()))
  in
  let ops = Atomic.get lat_n in
  let lat = latency_tail (if ops = Array.length latencies then latencies else Array.sub latencies 0 ops) in
  let drained = if trace then Sink.drain sink else Sink.empty in
  let stats = scheme.stats () in
  let live = match scheme.lifecycle with Evaporates live -> Some live | Deflates _ | Static -> None in
  {
    config;
    elapsed;
    ops;
    ops_per_sec = (if elapsed > 0.0 then float_of_int ops /. elapsed else 0.0);
    p50_us = lat.p50;
    p99_us = lat.p99;
    p999_us = lat.p999;
    max_us = lat.max;
    completed = Atomic.get completed;
    overflow_waits;
    sched;
    (* every worker records lock statistics under its leased index *)
    distinct_tids = scheme.stats_blocks ();
    events = Sink.length drained;
    dropped = Sink.total_dropped sink;
    buffered_words = Sink.buffered_words sink;
    (* the post-drain census: an evaporating table must be empty once
       every fiber has released *)
    evaporates = Option.is_some live;
    leaked_entries = Option.fold ~none:0 ~some:(fun live -> live ()) live;
    reaper_scans =
      Option.value ~default:0 (List.assoc_opt "reaper.scans" stats.Tl_core.Lock_stats.extra);
    deflations = stats.Tl_core.Lock_stats.deflations;
    controller = Option.map Controller.snapshot controller;
    policy_switches = Option.fold ~none:0 ~some:Controller.switches_total controller;
    oracle = (if trace && oracle then Some (scheme.verify drained) else None);
  }

let pp ppf (r : result) =
  Format.fprintf ppf
    "fiber-storm [%s]: %d fibers x %d op(s) on %d domain(s), %d object(s) \
     (zipf %.2f)@\n\
    \  completed    %d fiber(s) in %.3fs@\n\
    \  throughput   %.0f ops/sec@\n\
    \  acquire lat  p50 %.1fus  p99 %.1fus  p999 %.1fus  max %.1fus@\n\
    \  tid leases   %d distinct indices, %d overflow wait(s); scheduler %d \
     dispatch(es), %d yield(s), %d suspend(s)"
    r.config.scheme.name r.config.fibers r.config.ops_per_fiber r.config.domains
    r.config.objects r.config.zipf r.completed r.elapsed r.ops_per_sec
    r.p50_us r.p99_us r.p999_us r.max_us r.distinct_tids r.overflow_waits
    r.sched.dispatches r.sched.yields r.sched.suspends;
  if r.evaporates then
    Format.fprintf ppf "@\n  %-12s %d leaked entr%s after drain"
      (r.config.scheme.name ^ " table")
      r.leaked_entries
      (if r.leaked_entries = 1 then "y" else "ies");
  Option.iter
    (fun reap ->
      Format.fprintf ppf "@\n  reaper       %s: %d scan(s), %d deflation(s)"
        (Policy_lab.reap_name reap) r.reaper_scans r.deflations)
    r.config.reap;
  (match r.controller with
  | Some shards ->
      Format.fprintf ppf
        "@\n  controller   %d switch(es); shard policies [%s]"
        r.policy_switches
        (String.concat " "
           (Array.to_list
              (Array.map
                 (fun (s : Controller.shard_snapshot) ->
                   Controller.policy_name s.Controller.policy)
                 shards)))
  | None -> ());
  if r.events > 0 || r.dropped > 0 then
    Format.fprintf ppf "@\n  trace        %d event(s), %d dropped, %d buffered word(s)"
      r.events r.dropped r.buffered_words;
  match r.oracle with
  | Some rep ->
      Format.fprintf ppf "@\n  oracle       %s"
        (if Oracle.ok rep then "clean"
         else Format.asprintf "@[%a@]" Oracle.pp rep)
  | None -> ()
