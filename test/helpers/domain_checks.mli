(** Checks made on worker domains, reported on the main domain.

    Alcotest prints through one shared formatter that is not safe to
    use from several domains at once: a [check] that runs on a worker
    domain can raise [Queue.Empty] from inside the formatter instead of
    reporting.  Workers record their failures here instead — into an
    atomic list, so any number of domains (or fibers on them) may
    record at once — and the test asserts the collection from the main
    domain after the join. *)

type t

val create : unit -> t

val check_int : t -> string -> int -> int -> unit
(** [check_int t msg expected actual] records a failure when the two
    differ; it never raises. *)

val check_bool : t -> string -> bool -> bool -> unit

val assert_none : t -> unit
(** Main domain only: fail the current Alcotest case listing every
    recorded failure; do nothing when none was recorded. *)
