(** A drop-in [Atomic] that counts and, under the schedule explorer,
    schedules every shared access.

    The type is [Stdlib.Atomic.t] itself, so code compiled against
    this module exchanges atomics with code that is not (the heap's
    lock words, the monitor table's back-references).  Each access
    counts itself by kind.  While {!scheduled} is set — the explorer
    sets it whenever one of its simulated threads runs — each access
    first performs {!Access}, a scheduling point: the explorer suspends
    the thread there and resumes it when the schedule picks it, and
    only then does the [Stdlib] operation run.  Accesses that write
    also count in {!writes}.

    lib/sim builds the shipped [lib/core/thin.ml] against this module
    ([-open Tl_atomic_shim]); nothing outside lib/sim and the tests
    links it. *)

type 'a t = 'a Stdlib.Atomic.t

val make : 'a -> 'a t
(** Not counted: a fresh atomic is not yet shared. *)

val get : 'a t -> 'a
val set : 'a t -> 'a -> unit
val exchange : 'a t -> 'a -> 'a
val compare_and_set : 'a t -> 'a -> 'a -> bool
val fetch_and_add : int t -> int -> int
val incr : int t -> unit
val decr : int t -> unit

(** {1 Counting} *)

type counts = {
  get : int;
  set : int;
  exchange : int;
  cas : int;  (** [compare_and_set], successful or not *)
  fetch_and_add : int;  (** including [incr] and [decr] *)
}

val counted : (unit -> unit) -> counts
(** The accesses [f ()] makes, by kind. *)

val total : counts -> int

val pp_counts : Format.formatter -> counts -> unit
(** The non-zero kinds, e.g. ["1 get + 1 CAS"]; ["none"] when all are
    zero. *)

(** {1 Scheduling} *)

type _ Effect.t +=
  | Access : unit Effect.t
        (** Performed before each access while {!scheduled} is set. *)

val scheduled : bool ref
(** Set only while a thread of the explorer runs, under its handler.
    Outside it, accesses only count. *)

val writes : int ref
(** Accesses that changed their atomic's content — a failed
    [compare_and_set] is not one.  The explorer compares it across a
    step to tell a write from a read. *)
