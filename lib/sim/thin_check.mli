(** Worlds, checks and operation counts over the shipped thin lock.

    Everything here runs [lib/core/thin.ml] itself, compiled a second
    time against the counting, schedulable [Atomic] of lib/sim/shim
    (the copy is private to this library).  A world is one fresh thin
    ctx with its default configuration, over one heap object, plus a
    critical section that detects overlap and lost updates.  Lock-word
    accesses in [thin.ml] are the explorer's scheduling points; the
    monitor subsystem ([Fatlock], [Montable]), statistics and the
    event sink are not shimmed, so each call into them is one atomic
    step of the calling thread.

    Tests add adversary threads that act on {!lockword} through
    [Tl_atomic_shim.Atomic] and on {!montable} directly. *)

type t

val create : ?events:bool -> ?inflated:bool -> Tl_runtime.Runtime.t -> t
(** A world on [runtime].  [events] (default [false]) attaches an
    enabled event sink.  [inflated] (default [false]) starts the object
    inflated with an idle monitor: a setup thread nests the lock until
    the count overflows, then releases every level. *)

val lockword : t -> int Stdlib.Atomic.t
val obj_id : t -> int
val montable : t -> Tl_monitor.Montable.t
val sink : t -> Tl_events.Sink.t

val acquire : t -> Tl_runtime.Runtime.env -> unit
val release : t -> Tl_runtime.Runtime.env -> unit

val deflate : t -> [ `Deflated | `Busy | `Lost_race | `Not_inflated ]
(** One shot of the deflation handshake on the object. *)

val critical_section : t -> Tl_runtime.Runtime.env -> unit
(** Marks the calling thread inside, then bumps the section counter
    with a separate read and write, both scheduling points.  A second
    thread inside at the same time is a mutual-exclusion breach. *)

val locker :
  ?nesting:int ->
  ?acquire:(t -> Tl_runtime.Runtime.env -> unit) ->
  ?release:(t -> Tl_runtime.Runtime.env -> unit) ->
  iterations:int ->
  t ->
  Tl_runtime.Runtime.env ->
  unit
(** [locker ~iterations t] is a thread body that [iterations] times
    acquires the lock [nesting] times (default 1), runs the critical
    section, and releases as often.  Applying it to [t] adds its
    iterations to the sections the final check expects.  [acquire] and
    [release] (default {!acquire}, {!release}) replace the lock
    operations: an adversary is a locker with a broken one. *)

val deflater : t -> Tl_runtime.Runtime.env -> unit
(** A thread body running {!deflate} once. *)

val world : t -> (Tl_runtime.Runtime.env -> unit) array -> Explore.world
(** The threads under the checks: after every step, no
    mutual-exclusion breach; on completion, every expected section
    counted and the lock released — thin-unlocked, or inflated with an
    unowned monitor. *)

val lockers : ?nesting:int -> threads:int -> iterations:int -> Tl_runtime.Runtime.t -> Explore.world
(** [threads] lockers on a fresh world. *)

(** {1 Operation counts (§3.3)} *)

val solo_counts : unit -> (string * Tl_atomic_shim.Atomic.counts) list
(** Lock-word accesses on each uncontended path, one thread alone:
    unlocked acquire, count-0 release, nested acquire and release, and
    lock+unlock through an inflated idle monitor (whose own latch
    accesses are not counted). *)

val render_counts : unit -> string
(** {!solo_counts} as the rows every report prints. *)
