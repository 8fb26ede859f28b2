open Tl_core
module Runtime = Tl_runtime.Runtime
module Backoff = Tl_runtime.Backoff
module Ws_deque = Tl_fiber.Ws_deque

type mode = Affinity | Shuffle

let mode_name = function Affinity -> "affinity" | Shuffle -> "shuffle"

type backend = Os_domains | Fibers

let backend_name = function Os_domains -> "domains" | Fibers -> "fibers"

type run = { obj : int; ops : int array }

type lane = { lane_obj : int; runs : run array; mutable next_run : int }

(* Cut the trace into per-object balanced runs.  One pass; per-object
   accumulators hold the current run (reversed) and its depth. *)
let decompose (trace : Tracegen.t) =
  let order = ref [] in
  (* obj -> (current run ops, reversed; depth; finished runs, reversed) *)
  let state : (int, int list ref * int ref * run list ref) Hashtbl.t = Hashtbl.create 64 in
  let state_of obj =
    match Hashtbl.find_opt state obj with
    | Some s -> s
    | None ->
        let s = (ref [], ref 0, ref []) in
        Hashtbl.add state obj s;
        order := obj :: !order;
        s
  in
  Array.iter
    (fun op ->
      let obj = abs op - 1 in
      let cur, depth, runs = state_of obj in
      cur := op :: !cur;
      depth := !depth + (if op > 0 then 1 else -1);
      if !depth = 0 then begin
        runs := { obj; ops = Array.of_list (List.rev !cur) } :: !runs;
        cur := []
      end)
    trace.Tracegen.ops;
  List.rev_map
    (fun obj ->
      let cur, _, runs = Hashtbl.find state obj in
      (* Unbalanced tail: ship it as a final (unbalanced) run so every
         op of the trace is still executed exactly once. *)
      if !cur <> [] then runs := { obj; ops = Array.of_list (List.rev !cur) } :: !runs;
      { lane_obj = obj; runs = Array.of_list (List.rev !runs); next_run = 0 })
    !order
  |> Array.of_list

type config = {
  domains : int;
  mode : mode;
  work_per_op : int;
  slice_runs : int;
  tick_every : int;
  backend : backend;
}

let default_config =
  {
    domains = 1;
    mode = Affinity;
    work_per_op = 0;
    slice_runs = 8;
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

(* Deal the schedulable items to the per-domain deques.

   Affinity: the item is a whole lane, sharded by object id — all of an
   object's work starts (and, unless stolen, stays) on one domain.

   Shuffle: the item is a single run wrapped as a one-run lane, dealt
   round-robin in trace order — consecutive episodes of a hot object
   land on different domains, which is what manufactures contention. *)
let assignments ~config lanes =
  match config.mode with
  | Affinity ->
      let shards = Array.make config.domains [] in
      (* Walk backwards so each shard list comes out in lane order. *)
      for l = Array.length lanes - 1 downto 0 do
        let d = lanes.(l).lane_obj mod config.domains in
        shards.(d) <- lanes.(l) :: shards.(d)
      done;
      shards
  | Shuffle ->
      let shards = Array.make config.domains [] in
      let i = ref 0 in
      Array.iter
        (fun (lane : lane) ->
          Array.iter
            (fun r ->
              let d = !i mod config.domains in
              incr i;
              shards.(d) <- { lane_obj = r.obj; runs = [| r |]; next_run = 0 } :: shards.(d))
            lane.runs)
        lanes;
      Array.map List.rev shards

let run ?(config = default_config) ?(tick = fun _ -> ()) ~(scheme : Scheme_intf.packed)
    ~runtime (trace : Tracegen.t) =
  if config.domains < 1 then invalid_arg "Parallel_replay.run: domains";
  if config.slice_runs < 1 then invalid_arg "Parallel_replay.run: slice_runs";
  let lanes = decompose trace in
  let total_runs =
    Array.fold_left (fun acc (l : lane) -> acc + Array.length l.runs) 0 lanes
  in
  (* Affinity mode gives each domain the objects [obj mod domains];
     allocating them shard by shard keeps one domain's lock words off
     the cache lines another domain's CASes write. *)
  let pool =
    let shards = match config.mode with Affinity -> config.domains | Shuffle -> 1 in
    Tl_heap.Heap.alloc_many ~shards (Tl_heap.Heap.create ()) trace.Tracegen.pool_size
  in
  let shards = assignments ~config lanes in
  (* In shuffle mode every run is its own item, so the deques must be
     able to hold (in the worst stealing pattern) every item at once. *)
  let item_count = max 1 total_runs in
  let deques = Array.init config.domains (fun _ -> Ws_deque.create ~capacity:item_count) in
  Array.iteri (fun d items -> List.iter (Ws_deque.push deques.(d)) items) shards;
  let remaining = Atomic.make total_runs in
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
    let dq = deques.(d) in
    let ops_executed = ref 0
    and acquires = ref 0
    and runs_executed = ref 0
    and lanes_started = ref 0
    and steals = ref 0 in
    let since_tick = ref 0 in
    let exec_run (r : run) =
      (* Allocation-free on purpose: every minor collection stops all
         domains at once. *)
      let ops = r.ops in
      for k = 0 to Array.length ops - 1 do
        let op = ops.(k) in
        if op > 0 then begin
          scheme.Scheme_intf.acquire env pool.(op - 1);
          incr acquires
        end
        else scheme.Scheme_intf.release env pool.(-op - 1);
        if config.work_per_op > 0 then Replay.spin_work config.work_per_op;
        incr ops_executed;
        if config.tick_every > 0 then begin
          incr since_tick;
          if !since_tick >= config.tick_every then begin
            since_tick := 0;
            tick env
          end
        end
      done
    in
    (* [remaining] drops once per slice, by the runs the slice ran: the
       count stays exact (a slice's runs leave it only once they have
       all executed), and the uncontended replay pays one shared atomic
       per slice instead of one per few-op run. *)
    let exec_slice (lane : lane) =
      incr lanes_started;
      (* The cursor is written once per slice: lanes of different
         domains can share a cache line. *)
      let first = lane.next_run in
      let budget = min config.slice_runs (Array.length lane.runs - first) in
      for k = first to first + budget - 1 do
        exec_run lane.runs.(k)
      done;
      lane.next_run <- first + budget;
      runs_executed := !runs_executed + budget;
      ignore (Atomic.fetch_and_add remaining (-budget));
      if lane.next_run < Array.length lane.runs then Ws_deque.push dq lane
    in
    (* Through the env parker: a fiber carrier yields where an OS
       domain would sleep. *)
    let backoff = Backoff.create ~parker:env.Runtime.parker () in
    let rec drive () =
      match Ws_deque.pop dq with
      | Some lane ->
          Backoff.reset backoff;
          exec_slice lane;
          drive ()
      | None ->
          if Atomic.get remaining > 0 then begin
            (* Sweep the victims round-robin starting past ourselves;
               on a fruitless sweep, back off (yield, then sleep) so a
               single-core box lets the lane holders run. *)
            let landed = ref false in
            for k = 1 to config.domains - 1 do
              if not !landed then
                match Ws_deque.steal deques.((d + k) mod config.domains) with
                | `Stolen lane ->
                    landed := true;
                    incr steals;
                    Backoff.reset backoff;
                    exec_slice lane
                | `Empty | `Retry -> ()
            done;
            if not !landed then Backoff.once backoff;
            drive ()
          end
    in
    drive ();
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
         carrier domains: same scheme, same deques, but lock-side
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
