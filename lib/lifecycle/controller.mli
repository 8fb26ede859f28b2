(** Self-tuning deflation: an online feedback controller.

    The policy lab proved the best deflation policy is
    workload-dependent (eager wins on javalex/mocha, [never] on
    javacup), so any fixed choice loses somewhere.  This module closes
    the loop: it consumes the same per-object statistics
    [Tl_events.Residency] computes offline — log2 dwell histograms,
    contention counts, re-inflation thrash — aggregated {e per
    monitor-table shard} as the reaper walks the census, and
    periodically re-selects each shard's policy from a fixed ladder of
    candidates (conservative → eager):

    {v never → zero-contended-episodes → idle-for-4 → always-idle v}

    {b Cost model.}  Every [epoch_scans] census walks, each shard
    scores every candidate policy against its smoothed estimates:

    {v cost(p) = keep(p) + (1 - keep(p)) * reinfl_rate * thrash_weight v}

    where [keep(p)] is the fraction of idle observations the policy
    would leave fat (1 for [never], the contended fraction for
    [zero-contended], 0 for [always-idle]) and [reinfl_rate] is the
    EWMA probability that a deflated monitor promptly re-inflates.
    Keeping a monitor fat costs its idle residency; deflating it risks
    a thrash cycle worth [thrash_weight] residency units.  An
    idle-heavy shard (thrash rare) minimises at the eager end; a
    contention-heavy shard (every deflation thrashes) at [never].

    {b Hysteresis.}  A switch fires only when some candidate beats the
    incumbent by a relative [margin] for [patience] {e consecutive}
    decision epochs — so measurement noise on the regime boundary
    cannot flap the policy, and total switches are structurally
    bounded by [epochs / patience].

    {b Exploration.}  Under [never] no deflations happen, so the
    thrash estimate goes stale and the controller could never learn
    that a shard turned idle.  A token bucket ([explore_budget]
    tokens, one refilled every [explore_refill] epochs) pays for
    one-epoch excursions to the eager end of the ladder that refresh
    the estimate, after which the incumbent is restored.  Each
    excursion costs exactly one token and two (traced) switches.

    {b Decision trace.}  Every switch — hysteresis or exploration — is
    emitted by the reaper as a [Policy_switch] event on the system
    stream, its [arg] packed by {!pack_switch}, so both codecs,
    [trace-diff] and the oracle see the controller's every move.

    {b Hapax composition.}  A shard is never switched {e
    eager-ward} (nor explored) while any of its monitors reported a
    non-quiet admission pipeline this epoch ([Fatlock.pipeline_quiet]):
    deflating under ticketed arrivals composes badly with FIFO
    admission (PR 9's barging prevention).  The pending switch is held,
    not cancelled — it fires once the pipeline drains. *)

type config = {
  epoch_scans : int;  (** census scans per decision epoch (default 4) *)
  patience : int;
      (** consecutive winning epochs a challenger needs (default 2) *)
  margin : float;
      (** relative cost improvement required to switch (default 0.25) *)
  thrash_weight : float;
      (** residency units one re-inflation cycle costs (default 1.0,
          calibrated on the macro traces — see DESIGN.md §17; raise it
          to bias shards conservative in thrash-dominated regimes) *)
  ewma_alpha : float;  (** smoothing for rate estimates (default 0.3) *)
  explore_budget : int;  (** exploration tokens at start (default 4) *)
  explore_refill : int;
      (** epochs per token refilled; 0 disables refill (default 32) *)
  initial_policy : int;
      (** ladder index every shard starts at (default {!default_policy}) *)
}

val default_config : config

(** {1 The candidate ladder} *)

val candidates : Policy.t array
(** Conservative → eager; index is what {!pack_switch} carries. *)

val n_policies : int
val default_policy : int
(** Index of [idle-for-4] — the neutral starting point. *)

val policy_name : int -> string
val policy_index : string -> int option

type t

val create : ?config:config -> nshards:int -> unit -> t
(** [nshards] must match the monitor table's shard count
    ([Montable.shard_count]); observations for shard [s] are grouped
    under [s land (nshards - 1)]. *)

val config : t -> config
val nshards : t -> int

(** {1 The census feed (called by the reaper)} *)

type observation = {
  shard : int;
  tag : int;  (** the monitor's object id ([Fatlock.tag]) *)
  idle_scans : int;  (** consecutive idle observations, 0 = busy now *)
  contended_episodes : int;
  pipeline_quiet : bool;  (** [Fatlock.pipeline_quiet] *)
}

val observe : t -> observation -> unit
(** One live census entry seen during the current scan.  Re-inflation
    thrash is detected here: a tag the controller previously saw
    deflated reappearing fat counts against the eager policies. *)

val note_deflated : t -> shard:int -> tag:int -> unit
(** The handshake deflated this monitor during the current scan; the
    controller records the dwell (scans spent fat, log2-bucketed) and
    arms thrash detection for the tag. *)

type switch = {
  shard : int;
  from_policy : int;
  to_policy : int;
  score : int;  (** new policy's cost, in milli-units, clamped *)
  explore : bool;
}

val scan_complete : t -> switch list
(** End of one census walk.  Returns the switches decided by this
    scan (empty except at epoch boundaries); the caller emits them as
    [Policy_switch] events. *)

val policy_for : t -> int -> Policy.t
(** The shard's current policy (exploration included). *)

val engine : t -> Policy.engine
(** The {!Policy.controlled} engine view: per-shard decisions
    delegated to this controller — what the reaper mounts. *)

(** {1 Event packing}

    [Policy_switch] carries one int [arg]:
    bits 0–11 shard, 12–15 from-policy, 16–19 to-policy,
    20–39 score (milli-cost), bit 40 explore. *)

val pack_switch : switch -> int
val unpack_switch : int -> switch
val pp_switch : Format.formatter -> switch -> unit

(** {1 Reporting} *)

type shard_snapshot = {
  policy : int;  (** current ladder index *)
  switches : int;  (** hysteresis switches (exploration excluded) *)
  explorations : int;  (** completed explore excursions *)
  epochs : int;
  reinfl_rate : float;
  contended_frac : float;
  deflations : int;
  reinflations : int;
  dwell : int array;  (** log2 dwell histogram, in census scans *)
}

val snapshot : t -> shard_snapshot array
val switches_total : t -> int
(** All traced switches, exploration legs included. *)
