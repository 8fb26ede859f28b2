(** Parallel trace replay: partition a macro trace across OCaml domains
    and replay it through a work-stealing scheduler.

    The sequential {!Replay} measures the {e uncontended} tax, which is
    the paper's headline; this engine measures the {e contended} story
    — inflation on contention, fat-path residency, deflation-policy
    behaviour under concurrent pressure — and the throughput scaling of
    the protocol itself.

    {b Decomposition.}  A trace is cut into {e runs}: maximal balanced
    acquire/release slices of a single object (for generated traces,
    exactly the episodes {!Tracegen} emitted).  Runs of one object, in
    trace order, form that object's {e lane}.  The lane is the
    scheduling unit: whoever holds a lane executes its runs in order,
    so per-object program order — and hence the per-object acquire
    order — is preserved no matter how lanes migrate.  The cut is a
    counting sort by object: the trace's ops are regrouped into one
    lane-ordered array in which each lane is a contiguous segment (lanes
    in first-touch order) and each run a contiguous slice of its lane's
    segment, so a worker executing a lane scans memory in order.

    {b Affinity mode.}  Lanes are sharded to domains by object id
    ([obj mod domains]).  Each domain works its own shard in deal
    order; an idle domain claims a {e whole lane} from a victim's
    shard.  Because the thief takes every run of the object,
    thin-lock ownership locality survives migration: the new executor's
    first acquire CASes an unlocked word, and every later one is a
    nested fast path — no contention is ever manufactured by the
    scheduler itself.  Whoever takes a lane runs it to its end: only
    one executor can hold a lane at a time, so handing its remainder
    back to thieves would add no parallelism.

    {b Shuffle mode.}  Every run becomes its own single-run item and
    runs are dealt round-robin to domains {e ignoring} the object —
    consecutive episodes of the same hot object land on different
    domains on purpose.  Per-object cross-run order is deliberately
    broken (each run is still balanced, so lock discipline holds); this
    is the mode that manufactures real contention: overlapping episodes
    force contention inflation and queued fat acquires.

    {b Termination.}  The deal is one flat [int array] of items (an
    item is a packed run range), grouped by domain, with one atomic
    cursor per domain: the owner and thieves alike claim the next item
    of a segment with one [fetch_and_add].  The deal is the only write
    of work, so a segment once read empty stays empty.  A worker drains
    its own segment, then each victim's in turn, and ends when the last
    one reads empty — there is no shared count of outstanding work and
    no idle wait.

    {b Statistics.}  The scheme's [Lock_stats] counters are reset once
    before the domains start and snapshot once after they all join —
    never per domain.  Most counters are per-thread blocks written with
    plain stores, which a reset must not race and only the join makes
    visible in full; the rest are shared atomics that a per-domain
    snapshot would double-count.  Replay-local counters (ops, acquires,
    runs, steals, per-domain time) are tallied in plain per-domain
    records, each written by exactly one domain and merged after the
    join. *)

type mode = Affinity | Shuffle

val mode_name : mode -> string

type backend = Os_domains | Fibers
(** What a worker {e is}.  [Os_domains] spawns [config.domains] OCaml
    domains ([Domain_backend]).  [Fibers] runs the same workers as
    fibers of a {!Tl_fiber.Scheduler} multiplexed over [config.domains]
    carrier domains — the locks, stealing and tallies are untouched;
    only the blocking substrate changes (a contended worker suspends
    its fiber instead of its carrier domain). *)

val backend_name : backend -> string

type lane = { obj : int; first_run : int; end_run : int }
(** An object's runs in program order: runs [first_run] to
    [end_run - 1] of a {!decomposition}, all of them on object [obj]
    (0-based pool index). *)

type decomposition = {
  lane_ops : int array;
      (** the trace's ops (same [+n]/[-n] encoding as
          {!Tracegen.t.ops}), grouped lane by lane *)
  run_start : int array;
      (** run [r] is [lane_ops.(run_start.(r))] to
          [lane_ops.(run_start.(r + 1) - 1)]; one entry per run plus a
          final [Array.length lane_ops] *)
  all_lanes : lane array;  (** in first-touch order *)
}

val decompose : Tracegen.t -> decomposition
(** Cut a trace into per-object lanes, objects in first-touch order.
    Every op of the trace appears once in [lane_ops]; a lane's runs
    concatenate to its object's subsequence of the trace.  An
    unbalanced tail (impossible for generated or validated traces)
    becomes a final unbalanced run rather than an error.  Every op must
    name an object below the trace's [pool_size] (generated traces do;
    {!Trace_io} rejects loaded ones that do not). *)

type deal

val deal : domains:int -> mode -> lane array -> deal
(** Deal lanes to [domains] domains as {!run} does (see the module
    comment).  Exposed, like {!decompose}, for tests. *)

val claim : deal -> int -> int
(** [claim deal d] takes the next item of domain [d]'s segment, runs
    [first] to [last - 1] packed as [(first lsl 31) lor last], or [-1]
    once the segment is empty.  Safe from any domain; each item is
    handed out once. *)

type config = {
  domains : int;  (** worker domains to spawn (>= 1) *)
  mode : mode;
  work_per_op : int;  (** {!Replay.spin_work} iterations per op *)
  tick_every : int;
      (** ops between [tick] callbacks on each domain; 0 = never *)
  backend : backend;  (** what carries a worker; default [Os_domains] *)
}

val default_config : config
(** [{ domains = 1; mode = Affinity; work_per_op = 0; tick_every = 0;
      backend = Os_domains }] *)

type domain_tally = {
  domain : int;
  ops_executed : int;
  acquires_executed : int;
  runs_executed : int;
  lanes_started : int;
      (** items this domain claimed: lanes in affinity mode, runs in
          shuffle mode *)
  steals : int;  (** items it claimed from another domain's segment *)
  busy : float;  (** seconds from worker start to worker finish *)
}

type result = {
  elapsed : float;  (** wall-clock seconds, spawn to last join *)
  ops : int;
  acquires : int;
  ops_per_sec : float;
  lanes : int;
  runs : int;
  steals : int;  (** total across domains *)
  tallies : domain_tally array;  (** index = domain *)
  stats : Tl_core.Lock_stats.snapshot;
      (** one post-join snapshot of the scheme's counters — see the
          module comment on why it is taken once *)
}

val run :
  ?config:config ->
  ?tick:(Tl_runtime.Runtime.env -> unit) ->
  scheme:Tl_core.Scheme_intf.packed ->
  runtime:Tl_runtime.Runtime.t ->
  Tracegen.t ->
  result
(** Replay the trace across [config.domains] domains ([Domain_backend]
    workers registered on [runtime]; the scheme must have been created
    on the same runtime).  [tick] (default: nothing) runs on the
    executing domain every [config.tick_every] ops — the policy lab
    hangs quiescence announcements (and, on few-core hosts, a voluntary
    deschedule) off it.  A domain that runs out of its own items
    steals, and finishes once no victim holds any.  [domains = 1]
    still spawns one worker domain, keeping the measurement shape
    uniform across counts. *)

val fast_ratio : Tl_core.Lock_stats.snapshot -> float
(** Thin fast + nested acquires over all acquires (1.0 when there were
    none) — the headline ratio reported by [thinlocks replay-par] and
    the benchmark. *)
