(* The fiber storm: an open-loop workload that pushes the fiber
   runtime to a million lightweight threads contending for thin locks.

   A generator fiber admits up to [in_flight] worker fibers at a time
   (an admission window — completions return their slot and unpark the
   generator), optionally pacing admissions as a Poisson process.
   Each worker fiber picks objects by Zipf popularity, acquires,
   optionally burns critical-section work and {e yields while holding}
   — parking contenders on the inflated monitor and exercising
   cross-suspension lock handoff — then releases and thinks.

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
module Event = Tl_events.Event
module Oracle = Tl_events.Oracle
module Thin = Tl_core.Thin
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
  count_width : int;  (** thin nest-count width, for lock + oracle *)
  quiescence_every : int;  (** announce every N admissions; 0 = auto *)
  scheme : string;  (** locking scheme under the storm: "thin" or "cjm" *)
  fat_backend : string;
      (** contended-path engine for inflated monitors ("parker",
          "hapax" or "delegate"; thin scheme only).  Under "delegate"
          the critical section runs through [Thin.sync], so a busy
          monitor executes it on the current owner instead of parking
          the fiber. *)
  reap : string;
      (** deflation under the storm ("none" = leave monitors fat): a
          shipped policy name or "controlled" for the feedback
          controller; thin scheme only.  Scans ride the quiescence
          announcements. *)
  controller : Controller.config;  (** knobs for [reap = "controlled"] *)
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
    count_width = 8;
    quiescence_every = 0;
    scheme = "thin";
    fat_backend = "parker";
    reap = "none";
    controller = Controller.default_config;
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
  distinct_tids : int;
  events : int;
  dropped : int;
  buffered_words : int;  (** event storage the sink allocated, in words *)
  leaked_entries : int;
  reaper_scans : int;  (** census walks run by the reaper (0 when [reap = "none"]) *)
  deflations : int;  (** successful concurrent deflations under the storm *)
  controller : Controller.shard_snapshot array option;
      (** per-shard controller state at storm end ([reap = "controlled"]) *)
  policy_switches : int;  (** controller switches over the whole storm *)
  oracle : Oracle.report option;
}

let validate c =
  if c.fibers < 1 then invalid_arg "Fiber_storm: fibers";
  if c.domains < 1 then invalid_arg "Fiber_storm: domains";
  if c.objects < 1 then invalid_arg "Fiber_storm: objects";
  if c.ops_per_fiber < 1 then invalid_arg "Fiber_storm: ops_per_fiber";
  if c.in_flight < 1 then invalid_arg "Fiber_storm: in_flight";
  if c.zipf < 0.0 then invalid_arg "Fiber_storm: zipf";
  if c.scheme <> "thin" && c.scheme <> "cjm" then
    invalid_arg "Fiber_storm: scheme (expected \"thin\" or \"cjm\")";
  (match Tl_monitor.Fatlock.backend_of_string c.fat_backend with
  | Some _ -> ()
  | None ->
      invalid_arg "Fiber_storm: fat_backend (expected parker, hapax or delegate)");
  if c.scheme = "cjm" && c.fat_backend <> "parker" then
    invalid_arg "Fiber_storm: the cjm scheme has no pluggable fat backend";
  if c.reap <> "none" then begin
    (match Policy_lab.reap_of_string ~controller:c.controller c.reap with
    | Some _ -> ()
    | None ->
        invalid_arg
          "Fiber_storm: reap (expected none, controlled or a shipped policy name)");
    if c.scheme <> "thin" then
      invalid_arg "Fiber_storm: reap needs the thin scheme (cjm evaporates on its own)"
  end

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

(* Events per ring before drops: 16M, or 256 MB of one ring's slots —
   a cap, not a reservation. *)
let ring_cap = 1 lsl 24

let run ?(trace = true) ?(oracle = true) config =
  validate config;
  let runtime = Runtime.create () in
  let sink = if trace then Sink.create ~ring_capacity:ring_cap () else Sink.disabled in
  (* the runtime-level sink is where overflow marks land *)
  Runtime.set_event_sink runtime sink;
  let fat_backend =
    match Tl_monitor.Fatlock.backend_of_string config.fat_backend with
    | Some b -> b
    | None -> assert false (* validated above *)
  in
  let thin_config =
    {
      Thin.default_config with
      count_width = config.count_width;
      (* never put a carrier domain to sleep while fibers are runnable *)
      backoff_policy = Backoff.Yield;
      fat_backend;
    }
  in
  let heap = Tl_heap.Heap.create () in
  let total_ops = config.fibers * config.ops_per_fiber in
  (* microseconds, sampled on the ns clock: gettimeofday's µs
     granularity would floor sub-µs acquires to exactly 0 and make the
     p50 a lie *)
  let latencies = Array.make total_ops 0.0 in
  let lat_n = Atomic.make 0 in
  let record_latency t0 =
    latencies.(Atomic.fetch_and_add lat_n 1) <-
      Tl_util.Timer.ns_to_us (Tl_util.Timer.elapsed_ns ~since:t0)
  in
  let completed = Atomic.make 0 in
  let cdf = zipf_cdf ~theta:config.zipf config.objects in
  let reap_mode =
    if config.reap = "none" then None
    else Policy_lab.reap_of_string ~controller:config.controller config.reap
  in
  (* The thin ctx lives inside the scheduler closure; these smuggle the
     reaper-facing state out for the result. *)
  let controller_ref = ref None in
  let stats_ref = ref None in
  (* Every worker records lock statistics under its leased index, so
     the scheme's registered per-thread stats blocks count the distinct
     indices — traced or not. *)
  let tids_seen = ref (fun () -> 0) in
  let elapsed, overflow_waits, leaked_entries =
    Scheduler.run ~domains:config.domains runtime (fun genv ->
        (* The lock under the storm: thin locks by default, or the CJM
           transient table — same acquire/release shape, so the worker
           body is scheme-blind.  [leaked] is the post-drain census: a
           CJM table must be empty once every fiber has released. *)
        (* [episode env o body] is one timed lock episode: the latency
           sample covers entry — until the fiber holds the monitor, or
           (delegate backend) until its critical section starts running
           on whichever fiber combines it. *)
        let episode, leaked =
          match config.scheme with
          | "cjm" ->
              let ctx = Tl_cjm.Cjm.create_with ~events:sink runtime in
              tids_seen := (fun () -> Tl_core.Lock_stats.block_count (Tl_cjm.Cjm.stats ctx));
              ( (fun env o body ->
                  let t0 = Tl_util.Timer.now_ns () in
                  Tl_cjm.Cjm.acquire ctx env o;
                  record_latency t0;
                  body ();
                  Tl_cjm.Cjm.release ctx env o),
                fun () -> Tl_cjm.Cjm.live_entries ctx )
          | _ ->
              let ctx =
                Thin.create_with ~config:thin_config ~events:sink runtime
              in
              stats_ref := Some (Thin.stats ctx);
              tids_seen := (fun () -> Tl_core.Lock_stats.block_count (Thin.stats ctx));
              (match reap_mode with
              | None -> ()
              | Some (Policy_lab.Reap_fixed policy) ->
                  Tl_lifecycle.Reaper.on_quiescence ~policy runtime ctx
              | Some (Policy_lab.Reap_controlled cc) ->
                  let c =
                    Controller.create ~config:cc
                      ~nshards:
                        (Tl_monitor.Montable.shard_count (Thin.montable ctx))
                      ()
                  in
                  controller_ref := Some c;
                  Tl_lifecycle.Reaper.on_quiescence ~controller:c runtime ctx);
              let run =
                if fat_backend = Tl_monitor.Fatlock.Delegate then fun env o body ->
                  let t0 = Tl_util.Timer.now_ns () in
                  Thin.sync ctx env o (fun () ->
                      record_latency t0;
                      body ())
                else fun env o body ->
                  let t0 = Tl_util.Timer.now_ns () in
                  Thin.acquire ctx env o;
                  record_latency t0;
                  body ();
                  Thin.release ctx env o
              in
              (run, fun () -> 0)
        in
        let objs = Tl_heap.Heap.alloc_many heap config.objects in
        let slots = Atomic.make config.in_flight in
        let gen_parker = genv.Runtime.parker in
        let storm_fiber i env =
          let prng = Tl_util.Prng.create (config.seed lxor (i * 0x9E3779B1)) in
          for _ = 1 to config.ops_per_fiber do
            let o = objs.(sample_cdf cdf (Tl_util.Prng.float prng 1.0)) in
            if config.think_work > 0 then Replay.spin_work config.think_work;
            episode env o (fun () ->
                if config.critical_work > 0 then
                  Replay.spin_work config.critical_work;
                if config.yield_in_cs then Scheduler.yield ())
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
        (elapsed, Scheduler.overflow_waits (), leaked ()))
  in
  let ops = Atomic.get lat_n in
  let lat = if ops = Array.length latencies then latencies else Array.sub latencies 0 ops in
  Array.sort Float.compare lat;
  let pct p = if ops = 0 then 0.0 else Tl_util.Stats.percentile lat p in
  let drained = if trace then Sink.drain sink else Sink.empty in
  let report =
    if trace && oracle then
      Some
        (match config.scheme with
        | "cjm" -> Oracle.check ~mode:Oracle.Relaxed ~protocol:Oracle.Cjm drained
        | _ ->
            Oracle.check ~mode:Oracle.Relaxed ~count_width:config.count_width
              drained)
    else None
  in
  {
    config;
    elapsed;
    ops;
    ops_per_sec = (if elapsed > 0.0 then float_of_int ops /. elapsed else 0.0);
    p50_us = pct 50.0;
    p99_us = pct 99.0;
    p999_us = pct 99.9;
    max_us = (if ops = 0 then 0.0 else lat.(ops - 1));
    completed = Atomic.get completed;
    overflow_waits;
    distinct_tids = !tids_seen ();
    events = Array.length drained.Sink.events;
    dropped = Sink.total_dropped sink;
    buffered_words = Sink.buffered_words sink;
    leaked_entries;
    reaper_scans =
      (match !stats_ref with
      | Some stats when config.reap <> "none" ->
          let snap = Tl_core.Lock_stats.snapshot stats in
          (try List.assoc "reaper.scans" snap.Tl_core.Lock_stats.extra
           with Not_found -> 0)
      | _ -> 0);
    deflations =
      (match !stats_ref with
      | Some stats -> Tl_core.Lock_stats.deflation_count stats
      | None -> 0);
    controller = Option.map Controller.snapshot !controller_ref;
    policy_switches =
      (match !controller_ref with
      | Some c -> Controller.switches_total c
      | None -> 0);
    oracle = report;
  }

let pp ppf (r : result) =
  Format.fprintf ppf
    "fiber-storm [%s]: %d fibers x %d op(s) on %d domain(s), %d object(s) \
     (zipf %.2f)@\n\
    \  completed    %d fiber(s) in %.3fs@\n\
    \  throughput   %.0f ops/sec@\n\
    \  acquire lat  p50 %.1fus  p99 %.1fus  p999 %.1fus  max %.1fus@\n\
    \  tid leases   %d distinct indices, %d overflow wait(s)"
    (if r.config.fat_backend = "parker" then r.config.scheme
     else r.config.scheme ^ "/" ^ r.config.fat_backend)
    r.config.fibers r.config.ops_per_fiber r.config.domains
    r.config.objects r.config.zipf r.completed r.elapsed r.ops_per_sec
    r.p50_us r.p99_us r.p999_us r.max_us r.distinct_tids r.overflow_waits;
  if r.config.scheme = "cjm" then
    Format.fprintf ppf "@\n  cjm table    %d leaked entr%s after drain"
      r.leaked_entries
      (if r.leaked_entries = 1 then "y" else "ies");
  if r.config.reap <> "none" then
    Format.fprintf ppf "@\n  reaper       %s: %d scan(s), %d deflation(s)"
      r.config.reap r.reaper_scans r.deflations;
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
        (if Oracle.ok rep then "clean (relaxed)"
         else Format.asprintf "@[%a@]" Oracle.pp rep)
  | None -> ()
