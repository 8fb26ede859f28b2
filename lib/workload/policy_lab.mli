(** The policy lab: score deflation policies against macro traces
    using the lock-event stream.

    Counter snapshots say how many deflations happened; the ordered
    event stream additionally says how long monitors {e stayed} fat
    and whether a deflation was wasted because the same object
    re-inflated right after.  The lab replays one deterministic trace
    per policy with tracing enabled and reduces the drained stream to
    those metrics:

    - {b fast ratio} — acquires that took the thin fast or nested path
      over all acquires;
    - {b fat residency} — the integral of live fat monitors over the
      event-sequence span (mean monitors fat at any instant);
    - {b thrash} — re-inflations (an [Inflate_*] of an object already
      deflated once) per 1000 acquires.

    Replays use a 1-bit nest count so depth-3 episodes
    overflow-inflate (giving each benchmark its profile's inflation
    pressure even single-threaded) and announce a quiescence point
    every [quiescence_every] ops to drive the quiescence-hooked
    reaper.

    The lock under the lab is any {!Tl_baselines.Registry.entry} that
    emits events; its [lifecycle] decides the rows.  A scheme that
    [Deflates] gets one row per shipped policy; one whose monitors
    [Evaporates] (CJM) gets a single head-to-head row per trace. *)

(** {1 Reap modes}

    How the reaper attached to a replay is driven: a fixed shipped
    policy, or the self-tuning feedback controller
    ([Tl_lifecycle.Controller]) re-selecting each monitor-table
    shard's policy at runtime from the statistics the census walk
    feeds it. *)

type reap =
  | Reap_fixed of Tl_lifecycle.Policy.t
  | Reap_controlled of Tl_lifecycle.Controller.config

val reap_name : reap -> string
(** The policy's name, or ["controlled"]. *)

val reap_of_string :
  ?controller:Tl_lifecycle.Controller.config -> string -> reap option
(** Shipped-policy names ([Tl_lifecycle.Policy.of_string]) resolve to
    [Reap_fixed]; ["controlled"] to [Reap_controlled controller]
    (default {!Tl_lifecycle.Controller.default_config}). *)

val attach_reaper :
  ?reap:reap ->
  Tl_runtime.Runtime.t ->
  Tl_core.Scheme_intf.packed ->
  Tl_lifecycle.Controller.t option
(** Mount the quiescence-hooked reaper on a scheme that [Deflates]
    (nothing without [reap]).  Returns the controller of a
    [Reap_controlled] mount, created with the ctx's monitor-table
    shard count.
    @raise Invalid_argument if [reap] is given for any other
    lifecycle. *)

(** {1 Traced replays} *)

type replayed = {
  scheme : Tl_core.Scheme_intf.packed;
      (** the scheme after the replay: statistics, lifecycle census
          and its own oracle call ([verify]) *)
  controller : Tl_lifecycle.Controller.t option;
      (** the feedback controller, [Reap_controlled] replays only *)
  drained : Tl_events.Sink.drained;
}

val replay_traced :
  ?count_width:int ->
  ?quiescence_every:int ->
  ?sampling:Tl_events.Sink.sampling ->
  ?reap:reap ->
  Tl_baselines.Registry.entry ->
  Tracegen.t ->
  replayed
(** Replay one trace on a fresh runtime, heap and instance of the
    entry ([count_width] default 1, [quiescence_every] default 64),
    tracing every lock event into a sink sized so nothing drops;
    [sampling] (default every event) spot-checks production-style
    sampled streams.  [reap] (default none) attaches the reaper, driven
    by a fixed policy or the controller, and settles with 16 extra
    quiescence announcements after the trace.
    @raise Invalid_argument if [reap] is given for a scheme that does
    not [Deflates]. *)

val replay_traced_par :
  ?count_width:int ->
  ?quiescence_every:int ->
  ?interleave:bool ->
  ?backend:Parallel_replay.backend ->
  ?reap:reap ->
  domains:int ->
  mode:Parallel_replay.mode ->
  Tl_baselines.Registry.entry ->
  Tracegen.t ->
  Parallel_replay.result * replayed
(** {!replay_traced} across [domains] domains through
    {!Parallel_replay} (real domains, work stealing).  Quiescence is
    announced from each domain every [quiescence_every] ops, so
    controller decision epochs ride the single-flight quiescence scans.
    [interleave] (default [false]) adds a 50 µs voluntary deschedule to
    each announcement — the stand-in for involuntary preemption that
    makes lock episodes overlap even when the host has fewer cores than
    domains (a fiber sleep under the [Fibers] backend, so carriers stay
    busy).  [backend] (default [Os_domains]) selects what carries a
    worker — see {!Parallel_replay.backend}. *)

type score = {
  policy : string;
  acquires : int;
  fast_ratio : float;
  inflations : int;
  deflations : int;
  aborted : int;  (** aborted deflation handshakes *)
  reinflations : int;
  contended : int;  (** contended thin-lock episodes ([Contended_begin]) *)
  thrash : float;  (** re-inflations per 1000 acquires *)
  fat_residency : float;
  dropped : int;  (** ring-overflow losses — 0 in lab replays *)
}

val score_stream : label:string -> Tl_events.Sink.drained -> score
(** Reduce a drained stream to a row named [label]. *)

val lab_score : score -> float
(** Composite ranking key: slow-path percentage + thrash; lower is
    better. *)

val score : ?reap:reap -> replayed -> score
(** {!score_stream} of the replay, labelled by what drove deflation:
    the reap mode's name, [<scheme> (evaporate)] for a scheme whose
    monitors evaporate, or the scheme's name. *)

val run_one :
  ?count_width:int ->
  ?quiescence_every:int ->
  ?reap:reap ->
  Tl_baselines.Registry.entry ->
  Tracegen.t ->
  score
(** {!replay_traced} then {!score}. *)

val default_benchmarks : string list

val table :
  ?max_syncs:int ->
  ?seed:int ->
  ?benchmarks:string list ->
  ?controlled:Tl_lifecycle.Controller.config ->
  Tl_baselines.Registry.entry ->
  string
(** Render the comparison: one table per benchmark trace (default
    {!default_benchmarks}, 20k ops each) with a row per shipped policy
    and a lab-score ranking line — or, for a scheme whose monitors
    evaporate, one unranked row per trace.  [controlled] appends a
    feedback-controller row to each table so the self-tuning mode ranks
    against the fixed policies.
    @raise Invalid_argument for a [Static] scheme, or [controlled] on a
    scheme that does not deflate. *)

(** {1 Multi-domain lab}

    The single-threaded lab can never produce a contended episode, so
    [zero_contended_episodes] is indistinguishable from [always_idle]
    there.  The parallel lab replays the trace through
    {!Parallel_replay}, with the reaper's quiescence announcements
    riding the scheduler's per-domain tick — in shuffle mode,
    overlapping episodes of hot objects queue for real, and the
    policies separate. *)

val table_par :
  ?max_syncs:int ->
  ?seed:int ->
  ?benchmarks:string list ->
  ?interleave:bool ->
  ?backend:Parallel_replay.backend ->
  ?controlled:Tl_lifecycle.Controller.config ->
  domains:int ->
  mode:Parallel_replay.mode ->
  Tl_baselines.Registry.entry ->
  string
(** The parallel counterpart of {!table}, with a contended-episode
    column and [interleave] on by default.  Shuffle mode is the
    interesting one — it is where the contended column goes non-zero
    and the ranking can reorder. *)
