(** The NOP scheme: no synchronization at all.

    Used for the Fig. 6 "NOP" speed-of-light measurement (all locking
    work removed, only the surrounding benchmark structure remains).
    It performs no mutual exclusion whatsoever — never use it where
    correctness depends on locking. *)

include Tl_core.Scheme_intf.S

val create_with : ?events:Tl_events.Sink.t -> Tl_runtime.Runtime.t -> ctx
(** [events] (default [Sink.disabled]) receives the monitor-protocol
    events of each operation ([Acquire_fat], [Release_fat], [Wait_op],
    [Notify*_op]) although nothing is locked: the oracle flags the
    races a real monitor would have prevented. *)
