(** Deflation policies — when should the reaper try to deflate?

    A policy is a pure predicate over the per-monitor lifecycle
    counters maintained by [Tl_monitor.Fatlock].  It only {e nominates}
    a candidate: the deflation handshake
    ([Tl_core.Thin.deflate_lockword]) still re-checks idleness
    atomically, so an over-eager policy costs aborted handshakes, never
    correctness. *)

type candidate = {
  idle_scans : int;
      (** Consecutive reaper scans that observed this monitor idle
          ([Fatlock.observe_idle]); reset to 0 by any use.  0 means the
          monitor is busy right now. *)
  contended_episodes : int;
      (** Times any thread ever queued on this monitor
          ([Fatlock.contended_episodes]) — a cheap proxy for "is this a
          hot lock that will immediately re-inflate?" *)
}

type t = { name : string; decide : candidate -> bool }

val v : name:string -> (candidate -> bool) -> t

val never : t
(** The paper's §2.3 position: inflation is permanent. *)

val always_idle : t
(** Deflate anything observed idle at least once — maximally eager;
    thrashes on locks with bursty reuse. *)

val idle_for : quiescence_points:int -> t
(** Deflate after [n] {e consecutive} idle observations — the
    hysteresis Onodera & Kawachiya recommend so a momentarily-idle hot
    lock is left inflated. *)

val zero_contended_episodes : t
(** Deflate idle monitors that never developed a queue (e.g. inflated
    by [wait] or count overflow, not by contention); contended locks
    stay fat forever. *)

val shipped : t list
(** The four policies the CLI and the lab offer by name: [never],
    [always-idle], [idle-for-4], [zero-contended-episodes]. *)

val of_string : string -> t option
(** Look a {!shipped} policy up by its name. *)

val both : t -> t -> t
(** Conjunction. *)

(** {1 Engines}

    An engine generalises a fixed policy to {e per-shard} decisions:
    the reaper consults it with the monitor-table shard that owns each
    census candidate.  [Fixed] ignores the shard; [Controlled] is the
    feedback controller's view of itself ([Controller.engine]), which
    re-selects each shard's policy at runtime. *)

type engine =
  | Fixed of t
  | Controlled of { name : string; decide : shard:int -> candidate -> bool }

val fixed : t -> engine

val controlled : ?name:string -> (shard:int -> candidate -> bool) -> engine
(** Default name ["controlled"]. *)

val engine_decide : engine -> shard:int -> candidate -> bool
