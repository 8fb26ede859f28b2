(** The monitor-lifecycle reaper: walks the live-monitor census and
    deflates what a {!Policy} nominates, via the non-quiescent
    handshake ([Tl_core.Thin.deflate_lockword]) — so it is safe to run
    {e while lockers are active}.  Three driving modes:

    - {!scan_once}: one synchronous sweep, for callers with their own
      schedule (tests, a stop-the-world hook);
    - {!start}/{!stop}: a background thread sweeping on an interval;
    - {!on_quiescence}: sweeps driven by runtime quiescence
      announcements ([Runtime.quiescence_point]).

    Scan counts and latency are recorded in the scheme's [Lock_stats]
    extras: ["reaper.scans"] and ["reaper.scan_ns"] (integer
    nanoseconds on the monotonic clock, summed over scans), plus
    ["reaper.collapsed_scans"] and ["controller.switches"] below.  The
    handshake itself records ["deflations.non_quiescent"] and
    ["deflation.aborted_handshakes"].

    A scan costs the highest monitor slot ever allocated (see
    [Montable.iter_live]), and a scan of an empty table skips the walk.
    {!start} and {!on_quiescence} resolve their counter handles and
    policy engine once, when they are started or mounted, so an
    {!on_quiescence} scan of an empty table with a fixed policy
    allocates nothing. *)

type scan = {
  scanned : int;  (** live census entries visited *)
  candidates : int;  (** entries the policy nominated *)
  deflated : int;
  aborted : int;  (** handshakes aborted: the monitor was in use *)
  lost_races : int;  (** another deflater (or the world) got there first *)
  elapsed : float;  (** seconds, from the monotonic clock's nanoseconds *)
}

val pp_scan : Format.formatter -> scan -> unit

val scan_once : ?policy:Policy.t -> ?controller:Controller.t -> Tl_core.Thin.ctx -> scan
(** One sweep over the census (default policy: {!Policy.always_idle}).
    The walk is racy by design; every candidate is re-validated by the
    handshake, so concurrent allocation/free/locking is fine.

    With [controller], the fixed policy is replaced by the feedback
    controller's per-shard {!Policy.controlled} engine: every live
    entry is fed to [Controller.observe], successful deflations to
    [Controller.note_deflated], and the walk ends with
    [Controller.scan_complete] — each switch it decides is emitted as
    a [Policy_switch] event on the system stream and counted under the
    ["controller.switches"] stat extra. *)

(** {1 Background reaper} *)

type t

val start :
  ?policy:Policy.t -> ?controller:Controller.t -> ?interval:float -> Tl_core.Thin.ctx -> t
(** Spawn a thread sweeping every [interval] seconds (default 0.5 ms;
    0 means back-to-back sweeps with a yield in between). *)

val stop : t -> scan
(** Signal, join, and return the accumulated totals.  Idempotent. *)

val totals : t -> scan
val scans : t -> int

(** {1 Quiescence-driven reaping} *)

val on_quiescence :
  ?policy:Policy.t ->
  ?controller:Controller.t ->
  ?every:int ->
  Tl_runtime.Runtime.t ->
  Tl_core.Thin.ctx ->
  unit
(** Register a quiescence hook running {!scan_once} at every [every]-th
    announcement (default 1) — the stop-the-world-adjacent mode: scans
    happen on a mutator thread at a point it declared safe.  Scans are
    {e single-flight}: when several domains announce concurrently (the
    parallel replay engine does), an announcement that finds a scan
    already running skips instead of stacking a redundant census walk —
    overlapping walks would race on [Fatlock.observe_idle] and reset
    each other's consecutive-idle counts, starving hysteresis policies.
    Skips are counted under the ["reaper.collapsed_scans"] extra.  The
    hook cannot be unregistered (see [Runtime.on_quiescence]); stop
    announcing, or let the runtime drop. *)
