(** Hapax-style contended-path engine: value-based FIFO admission.

    Modeled on Hapax Locks (Dice & Kogan; see PAPERS.md): mutual
    exclusion coordinated through {e values} packed in a single word
    rather than through queue nodes.  Arrival is one fetch-and-add on
    the packed word (constant time, no allocation); unlock hands the
    monitor to the next admitted arrival by bumping the grant field
    (constant time); admission order is exactly ticket order — FIFO,
    no barging among waiters.

    This module is an {e engine}, not a complete lock: [Fatlock] embeds
    one per monitor (backend [Hapax]) and drives the protocol from
    under its latch.  The division of labor:

    - {b Packed admission word} [(arrivals | admitted)], 31 bits each.
      [arrive] (fetch-and-add, latch-held) issues tickets; [admit]
      (latch-held, by the releasing owner) grants the oldest
      un-admitted ticket; [claim] (latch-held, by the granted waiter)
      retires the ticket into ownership.  The invariant
      [claimed <= admitted <= arrivals] holds throughout, with at most
      one granted-but-unclaimed ticket — so a granted waiter's claim
      is uncontested provided the embedding lock refuses fresh
      (ticketless) entries while the pipeline is non-empty.
    - {b Waiting} is value-based: an OS-thread waiter spins on the
      word until its ticket is granted ([Tl_runtime.Backoff], bounded);
      a fiber waiter (cooperative parker) skips the spin.  Either then
      pushes a [(ticket, parker)] entry onto the list of the ring slot
      indexed [ticket mod slots] and parks; the grant's [wake] unparks
      the entry with the matching ticket, and the granted waiter
      withdraws its own entry.  Tickets [slots] apart share a slot's
      list, so a queue deeper than the ring parks like any other.  One
      list cell per parked waiter; a waiter granted mid-spin allocates
      nothing.  A spurious or stale unpark just re-checks the word.

    Capacity: 31-bit fields give ~2 × 10⁹ contended arrivals per
    engine.  A fresh [Fatlock] (hence a fresh engine) is allocated on
    every inflation, so the bound is per-inflation, not per-object. *)

type t

val create : ?slots:int -> ?spin:int -> unit -> t
(** [slots] (default 1024, rounded up to a power of two) is the length
    of the parked-waiter ring; waiters whose tickets collide share a
    slot's list, so the size only sets list lengths (four per slot at
    a 4096-deep queue).  [spin] (default 96) is the [Backoff] step
    budget an OS-thread waiter burns before parking —
    long relative to the parker backend's spin-before-park because
    each step is one uncontended load of the packed word, so most
    grants land mid-spin and skip the park/unpark pair.  Fiber waiters
    park at once. *)

(** {1 Admission (FIFO tickets)} *)

val arrive : t -> int
(** Take the next ticket (one fetch-and-add).  Call with the embedding
    lock's latch held, and only after deciding the fast path is closed
    — issuing a ticket obliges a future [admit] to grant it. *)

val granted : t -> int -> bool
(** Has [admit] reached this ticket?  Value-based: one atomic load. *)

val await : Tl_runtime.Runtime.env -> t -> int -> [ `Spun | `Parked ]
(** Wait (outside the latch) until the ticket is granted: bounded spin
    with yields (OS threads only), then publish the env's parker in
    the ticket's slot and park.  Returns how
    the wait ended — [`Spun] means no park was needed. *)

val admit : t -> int option
(** Grant the oldest pending ticket, if any ([Some ticket]); the
    caller must then [wake] it after releasing the latch.  Call with
    the latch held, as the owner, after clearing ownership — at most
    one grant may be outstanding. *)

val wake : t -> int -> unit
(** Unpark the waiter that published the granted ticket in its slot
    (no-op if it has not published yet — it re-checks the word after
    publishing). *)

val claim : t -> unit
(** Retire my granted ticket into ownership.  Latch held. *)

val pipeline_empty : t -> bool
(** No ticket is waiting, granted, or unclaimed ([arrivals = claimed]).
    While false, the embedding lock must refuse ticketless entry or a
    barger could steal a granted waiter's claim.  Latch held. *)

val pending_tickets : t -> int
(** [arrivals - claimed]: queued + granted-unclaimed tickets. *)
