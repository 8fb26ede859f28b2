(** The effects-based M:N fiber scheduler.

    {!run} multiplexes {e fibers} — [Effect.Deep] activations costing a
    few hundred bytes each — over a fixed pool of carrier domains, so a
    single process can host a million concurrently-live lightweight
    threads under the thin-lock protocol.  Each worker owns a Chase–Lev
    deque (spawns and wakeups; the other workers steal from it) plus a
    private FIFO for yields; cross-thread wakeups land in a shared
    injector.

    {b The runtime seam.}  While [run] is active it installs itself
    into the given {!Tl_runtime.Runtime.t}:

    - [Runtime.spawn ~backend:Fiber_backend] creates fibers here, and
      [Runtime.join] on the resulting handle works from both fiber and
      OS-thread context;
    - every fiber's [env] carries a {!Tl_runtime.Parker} whose park
      suspends the fiber (capturing its continuation in a {!Blocker})
      and whose unpark reschedules it on {e any} worker — so [Thin],
      [Fatlock], the lifecycle reaper and the event tracer run
      unchanged on fibers;
    - each fiber leases a 15-bit tid for its lifetime and releases it
      on exit.  When all [Tid.max_index] indices are leased, spawning
      fibers take the {e overflow path}: they emit a [Tid_overflow]
      event on the system stream and suspend until an index frees —
      they never observe [Tid.Exhausted], so total fibers over a run
      are unbounded while the lock word keeps its 15-bit index field.

    [run] returns when {e all} fibers have completed, not merely the
    main one.  If a fiber died of an uncaught exception and no joiner
    consumed the error, [run] re-raises the first such exception. *)

type t
(** A scheduler instance (opaque; reachable only inside {!run}). *)

val run : ?domains:int -> Tl_runtime.Runtime.t -> (Tl_runtime.Runtime.env -> 'a) -> 'a
(** [run ~domains runtime main] starts [domains] workers (default 1 —
    the calling thread always carries worker 0), runs [main] as the
    first fiber with a leased [env], and returns its result once every
    fiber has finished.  Nesting a [run] inside a fiber of another
    scheduler is not supported; running two schedulers over the {e
    same} runtime concurrently is not supported (they would fight over
    the spawner seam). *)

type counts = {
  dispatches : int;  (** tasks the workers ran: fiber starts and resumes *)
  yields : int;  (** [Yield]s: a fiber requeued at the back of its worker's FIFO *)
  suspends : int;  (** [Suspend]s: a fiber parked on a blocker *)
}
(** Scheduler work over one {!run_counted}, summed over the workers.
    Each worker keeps plain counts of its own; they are added up once
    every worker has stopped. *)

val run_counted :
  ?domains:int -> Tl_runtime.Runtime.t -> (Tl_runtime.Runtime.env -> 'a) -> 'a * counts
(** {!run}, also returning the scheduler's {!counts}. *)

val spawn : ?name:string -> (Tl_runtime.Runtime.env -> unit) -> unit -> unit
(** [spawn f] creates a fiber running [f] and returns its join thunk
    (idempotent; re-raises the fiber's uncaught exception, once).
    Equivalent to [Runtime.spawn ~backend:Fiber_backend] but without
    needing the runtime at hand.  Must be called from fiber context.
    @raise Invalid_argument otherwise. *)

val yield : unit -> unit
(** Reschedule the current fiber at the {e back} of its worker's local
    FIFO and run someone else.  Must be called from fiber context
    (raises [Effect.Unhandled] otherwise); this is also the current
    fiber's [Parker.yield]. *)

val sleep : float -> unit
(** Suspend the current fiber for at least the given seconds without
    blocking its carrier.  Resolution is the worker poll quantum
    (≤ ~1 ms when all workers are napping, much finer when busy).
    Outside fiber context, falls back to [Unix.sleepf]. *)

val overflow_waits : unit -> int
(** Number of tid-lease overflow episodes so far: how many times a
    spawning fiber found all 15-bit indices leased and had to wait for
    a release.  Fiber context only; returns 0 elsewhere. *)

val in_fiber_context : unit -> bool
(** [true] when the caller is running on a worker of some scheduler
    (i.e. inside a fiber). *)
