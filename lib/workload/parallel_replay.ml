open Tl_core
module Runtime = Tl_runtime.Runtime

type mode = Affinity | Shuffle

let mode_name = function Affinity -> "affinity" | Shuffle -> "shuffle"

type backend = Os_domains | Fibers

let backend_name = function Os_domains -> "domains" | Fibers -> "fibers"

type lane = { obj : int; first_run : int; end_run : int }

type decomposition = { lane_ops : int array; run_start : int array; all_lanes : lane array }

(* A counting sort of the trace by object.  The dense per-object arrays
   rely on every op naming an object below [pool_size], which generated
   traces meet by construction and loaded ones by Trace_io's range
   check. *)
let decompose (trace : Tracegen.t) =
  let ops = trace.Tracegen.ops in
  let n = Array.length ops in
  let pool = trace.Tracegen.pool_size in
  (* Pass 1: number the lanes in first-touch order, size each lane, and
     count the runs — every return of an object's depth to 0 closes
     one, and a lane left unbalanced gets one final tail run. *)
  let lane_of = Array.make pool (-1) in
  let obj_of = Array.make pool 0 in
  let size = Array.make pool 0 in
  let depth = Array.make pool 0 in
  let lanes = ref 0 and runs = ref 0 in
  for i = 0 to n - 1 do
    let op = ops.(i) in
    let obj = abs op - 1 in
    let l =
      match lane_of.(obj) with
      | -1 ->
          let l = !lanes in
          lane_of.(obj) <- l;
          obj_of.(l) <- obj;
          incr lanes;
          l
      | l -> l
    in
    size.(l) <- size.(l) + 1;
    let d = depth.(l) + if op > 0 then 1 else -1 in
    depth.(l) <- d;
    if d = 0 then incr runs
  done;
  let lanes = !lanes in
  for l = 0 to lanes - 1 do
    if depth.(l) <> 0 then incr runs
  done;
  (* Prefix sum: lane [l]'s segment is [start.(l), start.(l + 1)). *)
  let start = Array.make (lanes + 1) 0 in
  for l = 0 to lanes - 1 do
    start.(l + 1) <- start.(l) + size.(l)
  done;
  (* Pass 2: scatter every op to the next free slot of its lane. *)
  let fill = Array.sub start 0 lanes in
  let lane_ops = Array.make n 0 in
  for i = 0 to n - 1 do
    let op = ops.(i) in
    let l = lane_of.(abs op - 1) in
    lane_ops.(fill.(l)) <- op;
    fill.(l) <- fill.(l) + 1
  done;
  (* Walk each segment: a run opens wherever the depth stands at 0. *)
  let run_start = Array.make (!runs + 1) n in
  let r = ref 0 in
  let all_lanes =
    Array.init lanes (fun l ->
        let first_run = !r and d = ref 0 in
        for k = start.(l) to start.(l + 1) - 1 do
          if !d = 0 then begin
            run_start.(!r) <- k;
            incr r
          end;
          d := !d + if lane_ops.(k) > 0 then 1 else -1
        done;
        { obj = obj_of.(l); first_run; end_run = !r })
  in
  { lane_ops; run_start; all_lanes }

type config = {
  domains : int;
  mode : mode;
  work_per_op : int;
  tick_every : int;
  backend : backend;
}

let default_config =
  {
    domains = 1;
    mode = Affinity;
    work_per_op = 0;
    tick_every = 0;
    backend = Os_domains;
  }

type domain_tally = {
  domain : int;
  ops_executed : int;
  acquires_executed : int;
  runs_executed : int;
  lanes_started : int;
  steals : int;
  busy : float;
}

type result = {
  elapsed : float;
  ops : int;
  acquires : int;
  ops_per_sec : float;
  lanes : int;
  runs : int;
  steals : int;
  tallies : domain_tally array;
  stats : Lock_stats.snapshot;
}

let fast_ratio (s : Lock_stats.snapshot) =
  let total = Lock_stats.total_acquires s in
  if total = 0 then 1.0
  else
    float_of_int (s.Lock_stats.acquires_unlocked + s.Lock_stats.acquires_nested)
    /. float_of_int total

(* An item is a range of runs [first, last) packed into one int. *)
let run_bits = 31
let run_mask = (1 lsl run_bits) - 1

type deal = { items : int array; bounds : int array; cursors : int Atomic.t array }

(* Deal the schedulable items to the domains with a counting sort by
   domain, as [decompose] sorts ops by object: domain [d]'s items are
   the segment [bounds.(d), bounds.(d + 1)) of [items], in deal order,
   and [cursors.(d)] is the next index of it to hand out.

   Affinity: the item is a whole lane, sharded by object id — all of an
   object's work starts (and, unless stolen, stays) on one domain.

   Shuffle: the item is a single run, dealt round-robin in run order —
   consecutive episodes of a hot object land on different domains,
   which is what manufactures contention. *)
let deal ~domains mode lanes =
  let each f =
    match mode with
    | Affinity ->
        Array.iter
          (fun l -> f (l.obj mod domains) ((l.first_run lsl run_bits) lor l.end_run))
          lanes
    | Shuffle ->
        Array.iter
          (fun l ->
            for r = l.first_run to l.end_run - 1 do
              f (r mod domains) ((r lsl run_bits) lor (r + 1))
            done)
          lanes
  in
  let bounds = Array.make (domains + 1) 0 in
  each (fun d _ -> bounds.(d + 1) <- bounds.(d + 1) + 1);
  for d = 1 to domains do
    bounds.(d) <- bounds.(d) + bounds.(d - 1)
  done;
  let fill = Array.sub bounds 0 domains in
  let items = Array.make bounds.(domains) 0 in
  each (fun d item ->
      items.(fill.(d)) <- item;
      fill.(d) <- fill.(d) + 1);
  { items; bounds; cursors = Array.init domains (fun d -> Atomic.make bounds.(d)) }

(* Owner and thieves claim with the same [fetch_and_add], so each index
   is handed out once; a claim past the segment's end reads it empty. *)
let claim deal d =
  let i = Atomic.fetch_and_add deal.cursors.(d) 1 in
  if i < deal.bounds.(d + 1) then deal.items.(i) else -1

let run ?(config = default_config) ?(tick = fun _ -> ()) ~(scheme : Scheme_intf.packed)
    ~runtime (trace : Tracegen.t) =
  if config.domains < 1 then invalid_arg "Parallel_replay.run: domains";
  let { lane_ops; run_start; all_lanes = lanes } = decompose trace in
  let total_runs = Array.length run_start - 1 in
  if total_runs > run_mask then invalid_arg "Parallel_replay.run: too many runs";
  (* Affinity mode gives each domain the objects [obj mod domains];
     allocating them shard by shard keeps one domain's lock words off
     the cache lines another domain's CASes write. *)
  let pool =
    let shards = match config.mode with Affinity -> config.domains | Shuffle -> 1 in
    Tl_heap.Heap.alloc_many ~shards (Tl_heap.Heap.create ()) trace.Tracegen.pool_size
  in
  let dealt = deal ~domains:config.domains config.mode lanes in
  let dummy_tally =
    {
      domain = 0;
      ops_executed = 0;
      acquires_executed = 0;
      runs_executed = 0;
      lanes_started = 0;
      steals = 0;
      busy = 0.0;
    }
  in
  let tallies = Array.make config.domains dummy_tally in
  (* One reset before the domains start, one snapshot after they all
     join.  The scheme's counters are per-thread blocks written with
     plain stores, so a reset must not overlap recording (a worker's
     increment could survive it), and only the join orders every
     worker's last increment before the snapshot; a per-domain reset or
     snapshot would also double-count the shared deflation and extra
     counters. *)
  scheme.Scheme_intf.reset_stats ();
  let worker d env =
    let t0 = Tl_util.Timer.now () in
    let ops_executed = ref 0
    and acquires = ref 0
    and runs_executed = ref 0
    and lanes_started = ref 0
    and steals = ref 0 in
    let since_tick = ref 0 in
    (* An item runs to its end: only one executor can hold a lane at a
       time, so handing its remainder back to the deal would add no
       parallelism, only a round trip.  Its runs are one contiguous
       stretch of [lane_ops]. *)
    let exec_item item =
      let first = item lsr run_bits and last = item land run_mask in
      let lo = run_start.(first) and hi = run_start.(last) in
      (* Allocation-free on purpose: every minor collection stops all
         domains at once. *)
      for k = lo to hi - 1 do
        let op = lane_ops.(k) in
        if op > 0 then begin
          scheme.Scheme_intf.acquire env pool.(op - 1);
          incr acquires
        end
        else scheme.Scheme_intf.release env pool.(-op - 1);
        if config.work_per_op > 0 then Replay.spin_work config.work_per_op;
        if config.tick_every > 0 then begin
          incr since_tick;
          if !since_tick >= config.tick_every then begin
            since_tick := 0;
            tick env
          end
        end
      done;
      incr lanes_started;
      runs_executed := !runs_executed + (last - first);
      ops_executed := !ops_executed + (hi - lo)
    in
    (* Own segment first, then each victim's in turn, starting past
       itself.  Nothing is dealt after the deal, so a segment once read
       empty stays empty and the worker ends when the last one does. *)
    for k = 0 to config.domains - 1 do
      let v = (d + k) mod config.domains in
      let item = ref (claim dealt v) in
      while !item >= 0 do
        if k > 0 then incr steals;
        exec_item !item;
        item := claim dealt v
      done
    done;
    tallies.(d) <-
      {
        domain = d;
        ops_executed = !ops_executed;
        acquires_executed = !acquires;
        runs_executed = !runs_executed;
        lanes_started = !lanes_started;
        steals = !steals;
        busy = Tl_util.Timer.now () -. t0;
      }
  in
  let t0 = Tl_util.Timer.now () in
  (match config.backend with
  | Os_domains ->
      Runtime.run_parallel ~name_prefix:"replay" ~backend:Runtime.Domain_backend
        runtime config.domains (fun d env -> worker d env)
  | Fibers ->
      (* The workers become fibers multiplexed over [config.domains]
         carrier domains: same scheme, same deal, but lock-side
         blocking suspends a fiber instead of an OS thread. *)
      Tl_fiber.Scheduler.run ~domains:config.domains runtime (fun _env ->
          Runtime.run_parallel ~name_prefix:"replay"
            ~backend:Runtime.Fiber_backend runtime config.domains (fun d env ->
              worker d env)));
  let elapsed = Tl_util.Timer.now () -. t0 in
  let sum f = Array.fold_left (fun acc (t : domain_tally) -> acc + f t) 0 tallies in
  let ops = sum (fun t -> t.ops_executed) in
  let acquires = sum (fun t -> t.acquires_executed) in
  let steals = sum (fun t -> t.steals) in
  {
    elapsed;
    ops;
    acquires;
    ops_per_sec = (if elapsed > 0.0 then float_of_int ops /. elapsed else 0.0);
    lanes = Array.length lanes;
    runs = total_runs;
    steals;
    tallies;
    stats = scheme.Scheme_intf.stats ();
  }
