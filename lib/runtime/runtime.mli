(** Thread runtime: execution environments, spawn and join.

    Each running thread holds an {!env} — the paper's "execution
    environment" (§2.3.1) — carrying its thread index both plain and
    pre-shifted into lock-word position, plus its parker.  Lock
    operations take the env explicitly, so finding "my index" is one
    field load, exactly as in the paper.  Because the env is explicit
    (no thread-local lookup) and the parker is pluggable, the same
    lock code runs on OS threads, domains, and fibers. *)

type t
(** A runtime instance: thread-index table plus bookkeeping.  Distinct
    instances are fully independent, which keeps tests isolated. *)

type env = {
  descriptor : Tid.descriptor;
  shifted_index : int;  (** [descriptor.index lsl lock_word_shift] *)
  parker : Parker.t;
  runtime : t;
}

val lock_word_shift : int
(** Bit position of the thread index within the lock word: 16.  The
    header layout in [Tl_heap.Header] must agree (checked by tests). *)

val create : unit -> t

val tid_table : t -> Tid.table

val register_current : ?parker:Parker.t -> t -> name:string -> env
(** Allocate an index and environment for the calling thread.  The
    caller is responsible for {!unregister} when the thread is done
    using the runtime.  [parker] (default a fresh OS-thread parker)
    lets fiber schedulers register envs whose blocking suspends the
    fiber instead of the carrier thread.
    @raise Tid.Exhausted when all indices are live. *)

val try_register : ?parker:Parker.t -> t -> name:string -> env option
(** Like {!register_current} but returns [None] on index exhaustion
    instead of raising — the fiber scheduler's overflow path parks the
    fiber and retries when an index is released.  When the leased
    index is a recycled one and tracing is on, the sink epoch is
    advanced, so the new holder's event stream is stamped strictly
    after the previous holder's. *)

val unregister : env -> unit
(** Release the env's index (making it leasable again) and fire the
    index-released hook, if any. *)

val set_index_released_hook : t -> (unit -> unit) option -> unit
(** Install (or clear, with [None]) a hook that runs after every
    {!unregister}.  The fiber scheduler uses it to wake one fiber
    waiting out lease exhaustion.  Single slot — installing replaces
    the previous hook. *)

val main_env : t -> env
(** The lazily-created environment of the runtime's founding thread.
    Call it from that thread only. *)

type backend = Thread_backend | Domain_backend | Fiber_backend

type handle

val spawn : ?name:string -> ?backend:backend -> t -> (env -> unit) -> handle
(** Start a thread running the body with a fresh environment (released
    when the body returns or raises).  The default backend is
    [Thread_backend]: OCaml systhreads — appropriate on this one-core
    testbed; [Domain_backend] uses [Domain.spawn] for real
    parallelism; [Fiber_backend] hands the body to the currently
    running [Fiber.Scheduler] as a lightweight fiber (raising
    [Invalid_argument] when no scheduler is active on this
    runtime). *)

val set_fiber_spawner : t -> (string -> (env -> unit) -> unit -> unit) option -> unit
(** Injection point for [Fiber_backend], installed by
    [Fiber.Scheduler.run] and cleared when it returns.  The spawner
    takes a name and a body, starts the fiber (leasing its env itself,
    with the suspension-based overflow path on exhaustion), and
    returns a join thunk that re-raises the body's exception. *)

val join : handle -> unit
(** Wait for completion; re-raises the body's exception, if any.
    Joining a fiber handle from inside a fiber suspends the joining
    fiber; from an OS thread it blocks the thread. *)

val run_parallel :
  ?name_prefix:string -> ?backend:backend -> t -> int -> (int -> env -> unit) -> unit
(** [run_parallel t n body] spawns [n] threads running [body i env] and
    joins them all, re-raising the first failure after all complete. *)

(** {1 Quiescence points (lifecycle extension)}

    A {e quiescence point} is a place where a thread announces it is at
    a safe point (between monitor operations) — the moral equivalent of
    a JVM safepoint poll.  The monitor-lifecycle reaper can drive its
    deflation scans from these instead of (or in addition to) a
    background thread. *)

val on_quiescence : t -> (unit -> unit) -> unit
(** Register a hook to run at every subsequent {!quiescence_point}.
    Registration is lock-free and never blocks announcing threads;
    hooks run oldest-first on the announcing thread and must not
    raise.  Hooks cannot be unregistered — use a flag in the closure to
    disable one. *)

val quiescence_point : env:env -> t -> unit
(** Announce a quiescence point: bump the counter and run the hooks on
    the calling thread, [env]'s.  Safe to call concurrently from any
    registered thread, and allocates nothing of its own.  When an event
    sink is attached ({!set_event_sink}), a [Quiescence] event is
    recorded, attributed to [env]'s thread. *)

val quiescence_count : t -> int
(** Total quiescence points announced on this runtime. *)

(** {1 Event tracing}

    A runtime carries one {!Tl_events.Sink} (default:
    [Sink.disabled]) so runtime-level events — currently quiescence
    points — land in the same stream the lock layers write to. *)

val set_event_sink : t -> Tl_events.Sink.t -> unit
(** Attach a sink.  Threads already between operations pick it up on
    their next announcement; call before starting the workload when a
    complete stream matters. *)

val event_sink : t -> Tl_events.Sink.t
