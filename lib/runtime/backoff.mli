(** Exponential backoff for spin loops.

    The paper (§2.3.4) accepts spin-locking during inflation and points
    at "standard back-off techniques" (Anderson 1990) for the
    pathological long-hold case.  On this single-core testbed a pure
    spin would burn a whole scheduler quantum, so the default policy
    escalates: busy spins, then thread yields, then exponentially
    growing sleeps capped at ~1 ms. *)

type policy =
  | Busy  (** pure [cpu_relax] spinning (never sleeps) *)
  | Yield  (** spin then yield to other threads *)
  | Yield_sleep  (** spin, yield, then exponential sleep — the default *)

type t

val create : ?policy:policy -> ?parker:Parker.t -> unit -> t
(** Fresh backoff state for one waiting episode.  The [Yield] and
    [Yield_sleep] policies give up the processor through [parker]
    ([Parker.yield]; [Thread.yield] without one).  Waiters pass their
    [env.parker].  On a {!Parker.cooperative} (fiber) parker every step
    after the first two yields, whatever the policy: a spin on a lock
    held by a fiber queued on this very carrier domain lets the holder
    run, and no policy sleeps or busy-spins the carrier.  Waiters that
    can park rather than spin (the fat lock's entry queue, hapax
    admission) do not spin on such a parker at all. *)

val once : t -> unit
(** Wait a little, escalating on each call. *)

val reset : t -> unit
(** Forget the escalation (call after a successful acquisition). *)

val steps : t -> int
(** Number of [once] calls since creation/reset — exported so tests and
    statistics can observe how hard a waiter had to try. *)

val bounded : t -> budget:int -> (unit -> bool) -> bool
(** [bounded t ~budget ready] spins ([once] per step, so the policy's
    escalation applies) until [ready ()] holds or [budget] steps have
    been taken since the last reset; returns [ready]'s final verdict.
    The spin-then-park entry paths use this for their spin phase: a
    [true] return is a park/unpark round trip avoided. *)
