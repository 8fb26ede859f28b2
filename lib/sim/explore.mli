(** A schedule explorer for real code.

    Each simulated thread is an effect-handled fiber on the calling
    domain with a cooperative parker ([Parker.make]).  Code compiled
    against the counting [Atomic] of lib/sim/shim stops at every
    shared access ({!Tl_atomic_shim.Atomic.Access}); the explorer
    decides which stopped thread runs its access next, so a path is a
    sequence of thread choices, and between two accesses a thread runs
    alone.  Everything a thread does between accesses — calls into
    code that was not compiled against the shim included — is one
    atomic step; every thread first runs alone up to its first
    access.

    - [Parker.park] blocks the thread until an [unpark] arrives
      (permit semantics); [Parker.yield] is a scheduling point.
    - Continuations are one-shot, so every path re-runs from a fresh
      world — a fresh runtime and whatever the world builder makes on
      it — along a recorded schedule prefix.  The same design as
      dscheck (https://github.com/ocaml-multicore/dscheck).
    - The state invariant is checked after every step, the final check
      on every path on which every thread returned.  A violation is an
      invariant or final failure, an exception escaping a thread, a
      state where every live thread is parked (a lost wakeup), or one
      where every live thread spins with nothing left to wait for.

    Two reductions keep real code tractable:

    - {b Stutter.} A thread that called [Parker.yield] is not scheduled
      again until another thread runs an access that changes an atomic
      (a failed [compare_and_set] does not), or until every live thread
      has yielded.  In the checked code a yield ends one iteration of a
      spin whose next step re-reads the lock word, which only shimmed
      accesses write; with no write in between, the re-read sees what
      the last one saw and the iteration repeats itself.  Skipping it
      drops only paths that revisit a state with the same thread
      choices ahead.  (A spin that waited on state written outside the
      shim would still end, through the all-yielded release, but its
      interleavings with that write would be cut.)  If every live
      thread yields again after such a release without a write or an
      unpark in between, no thread can make progress: a livelock,
      reported as a violation.
    - {b Preemption bound} (Musuvathi and Qadeer, PLDI 2007), optional.
      Switching away from a thread that could still run counts as a
      preemption; switches at a yield, a park or a thread's end are
      free.  A bounded search is complete for every path with at most
      that many preemptions, and a violation it finds is real. *)

type world = {
  threads : (Tl_runtime.Runtime.env -> unit) array;
      (** the thread bodies, one env each, registered on the world's
          runtime with a cooperative parker *)
  invariant : unit -> string option;  (** after every step *)
  final : unit -> string option;  (** once every thread has returned *)
}

type violation = {
  message : string;
  schedule : int list;  (** thread choices from the start, oldest first *)
}

type outcome = {
  explored_paths : int;
  completed_paths : int;  (** paths on which every thread returned *)
  truncated_paths : int;  (** paths cut by the depth bound *)
  violation : violation option;  (** the first violation found, if any *)
}

val explore : ?preemption_bound:int -> (Tl_runtime.Runtime.t -> world) -> outcome
(** Depth-first enumeration of every schedule of the world, up to
    the preemption bound (none by default).  The builder is called
    once per path on a fresh runtime and must build the same world
    each time.  A path longer than 10_000 steps is cut and counted as
    truncated, not failed.  Stops at the first violation. *)

val sample : schedules:int -> seed:int -> (Tl_runtime.Runtime.t -> world) -> outcome
(** [schedules] uniformly random schedules (deterministic in [seed]),
    for worlds too large to enumerate; paths are cut as by {!explore}.
    Stops at the first violation. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** [paths=… completed=… truncated=… violation=…]. *)
