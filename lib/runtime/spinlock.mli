(** A tiny test-and-test-and-set spin lock with backoff.

    Used only to protect the short critical sections inside fat locks
    and baseline bookkeeping structures — the role the JVM's internal
    monitor latch plays.  Do not hold across blocking operations. *)

type t

val create : unit -> t
val acquire : t -> unit
(** One CAS when the lock is free; backs off (allocating its state)
    only after that attempt fails. *)

val release : t -> unit
val try_acquire : t -> bool
