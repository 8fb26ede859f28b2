(** Per-thread park/unpark behind a pluggable blocking interface.

    This is the kernel-blocking substitute (the JVM would use a futex
    or an OS event; see DESIGN.md §1): each thread owns a permit.
    {!park} consumes the permit, blocking until one is available;
    {!unpark} deposits one.  Permits do not accumulate — unparking an
    already-permitted thread is a no-op — which is exactly the
    semantics monitor queues need: a wakeup delivered before the park
    is not lost, and double wakeups are harmless.

    A parker is a record of closures, so what "blocking" means is an
    implementation choice: {!create} builds the OS-thread parker
    (mutex + condition), while the fiber scheduler ({!module:Fiber} in
    [lib/fiber]) builds parkers via {!make} whose park suspends the
    calling {e fiber} (capturing its continuation) and whose unpark
    reschedules it on any domain.  Code that blocks through
    [env.parker] — the fat-lock queue above all — runs unchanged on
    either substrate. *)

type t

val make :
  park:(unit -> unit) ->
  park_timeout:(seconds:float -> bool) ->
  unpark:(unit -> unit) ->
  has_permit:(unit -> bool) ->
  yield:(unit -> unit) ->
  t
(** Assemble a parker from an alternative blocking substrate.  The
    closures must implement permit semantics: [park] consumes, [unpark]
    deposits at most one, [park_timeout] returns whether a permit was
    consumed (false = deadline hit).  Such a parker is {!cooperative}. *)

val create : unit -> t
(** The OS-thread implementation: park blocks the calling thread on a
    condition variable; yield is [Thread.yield]. *)

val park : t -> unit
(** Block until a permit is available, then consume it. *)

val park_timeout : t -> seconds:float -> bool
(** Like {!park} but gives up after [seconds]; returns [true] if a
    permit was consumed, [false] on timeout.

    OS implementation: the stdlib [Condition] has no timed wait, so
    this waits in [Unix.sleepf] slices against a deadline computed
    once.  Every slice is clamped to the time remaining — the wait
    never overshoots the deadline by more than one [sleepf] granularity
    (the OS timer resolution, typically tens of µs), and sub-slice
    timeouts (e.g. 20 µs) sleep just that long instead of a full poll
    quantum.  Slices start at 10 µs and double to a 200 µs cap, which
    also bounds unpark-to-wakeup latency at ~200 µs.  Fiber
    implementation: resolution is the scheduler's timer service
    interval (see [Fiber.Scheduler]). *)

val unpark : t -> unit
(** Deposit a permit, waking the parked thread if any.  Safe to call
    from any thread or domain, including against a fiber parker. *)

val has_permit : t -> bool
(** Observation for tests; racy by nature. *)

val yield : t -> unit
(** Give up the processor politely: [Thread.yield] on the OS
    implementation, a scheduler yield (requeue the fiber, run someone
    else) on the fiber implementation.  Spin loops that may be waiting
    on a {e fiber} scheduled on this very carrier domain must use this
    instead of [Thread.yield], or the holder never gets to run. *)

val cooperative : t -> bool
(** Built by {!make}: the parker of a fiber, which shares its carrier
    domain with the other fibers queued on it.  A waiter on such a
    parker must never sleep the carrier, nor spin it for long — the
    holder it waits for may be queued behind it.  [Backoff] enforces
    that for every spin loop given the waiter's parker, and the fat
    lock's parking paths skip their spin phase for such a waiter. *)
