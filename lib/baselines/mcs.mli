(** MCS queue locks (Mellor-Crummey & Scott 1991), the related-work
    baseline of paper §4.1.

    "MCS locks are similar to thin locks in that they only require a
    single atomic operation to lock an object in the most common case.
    However, MCS locks also require an atomic operation to release a
    lock" — this implementation exists to measure exactly that
    difference on the micro-benchmarks.

    The MCS lock proper is a queue of per-acquisition nodes threaded
    through an atomically-exchanged tail pointer; each waiter spins on
    its own node.  Java monitor semantics (re-entrancy, wait/notify)
    are layered on top: owner and count fields are written only while
    holding the queue lock, and the wait set reuses the runtime's
    parkers. *)

include Tl_core.Scheme_intf.S

val create_with : ?events:Tl_events.Sink.t -> Tl_runtime.Runtime.t -> ctx
(** [events] (default [Sink.disabled]) receives the monitor-protocol
    stream that [Monitor_ops] describes, with the queue lock as the
    monitor: an uncontended or nested entry is an [Acquire_fat], one
    that waited for a predecessor an [Acquire_fat_queued]. *)
