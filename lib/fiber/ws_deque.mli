(** Chase–Lev work-stealing deque (fixed capacity).

    One {e owner} thread pushes and pops at the bottom (LIFO — it keeps
    working on what it most recently deferred, which is what preserves
    locality); any number of {e thief} threads steal from the top (FIFO
    — they take the oldest, coldest item).  This is the run queue of
    the fiber {!Scheduler}: items are runnable fibers.

    The implementation is the classic Chase–Lev algorithm over a
    fixed-size circular buffer of atomic slots: [push]/[pop] touch only
    the bottom index; thieves race each other and the owner's final pop
    on a compare-and-swap of the top index, which only ever increases,
    so there is no ABA.  Capacity is fixed at creation; [push] raises
    {!Full} rather than resizing, and the scheduler then queues the
    task on its worker's owner-only FIFO. *)

type 'a t

exception Full

val create : capacity:int -> 'a t
(** Capacity is rounded up to a power of two; at most that many items
    may be in the deque at once. *)

val capacity : 'a t -> int

val push : 'a t -> 'a -> unit
(** Owner only.  @raise Full when the deque holds [capacity] items. *)

val pop : 'a t -> 'a option
(** Owner only: take the most recently pushed item (LIFO).  [None] when
    empty. *)

val steal : 'a t -> [ `Stolen of 'a | `Empty | `Retry ]
(** Any thread: take the oldest item (FIFO).  [`Retry] means the CAS
    lost to the owner or a rival thief — the deque may or may not still
    hold work, so sweep on. *)

val size : 'a t -> int
(** Racy estimate (bottom - top); exact when quiesced. *)
