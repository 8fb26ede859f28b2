(** Sharded index table with lock-free reads, slot recycling, and
    generation-tagged handles.

    The generic mechanism behind {!Montable}: allocation registers a
    value and returns a small integer {e handle}; lookup is two array
    fetches plus an atomic cell read.  A handle packs a slot number in
    its low [slot_width] bits and a small {e generation} above it.
    Freeing a slot bumps the stored generation, so handles minted
    before the free stop matching: a reader holding a stale handle gets
    {!Stale} (or [None] from {!find}) instead of the slot's new
    occupant.  Storage is a spine of fixed-size chunks — cells never
    move, which is what keeps unsynchronized readers safe while the
    table grows.

    Allocation is sharded: slots are striped across [shards]
    independent free-lists, each behind its own mutex, so concurrent
    allocations with different [shard_hint]s never contend.  A dry
    shard steals from its neighbours before declaring exhaustion. *)

type 'a t

exception Stale of int
(** The handle's generation no longer matches the slot: the entry it
    named was freed (and possibly reallocated) after the handle was
    minted. *)

val create : ?max_index:int -> ?generation_width:int -> ?shards:int -> unit -> 'a t
(** [max_index] bounds the slot number (default [2^18 - 1]; with the
    default 5 generation bits a handle then fits the 23-bit monitor
    field of an inflated lock word).  [generation_width] is the number
    of generation bits (default 5); reuse detection is ABA-bounded by
    [2^generation_width] recycles of one slot.  [shards] is rounded up
    to a power of two (default 8). *)

val allocate : ?shard_hint:int -> 'a t -> 'a -> int
(** Register a value; returns its handle (≥ 1).  Thread-safe.
    [shard_hint] (e.g. a thread or domain index) selects the home
    shard; without it the current domain id is used.
    @raise Failure when every shard is exhausted. *)

val get : 'a t -> int -> 'a
(** O(1), lock-free.
    @raise Stale if the handle's slot was freed since the handle was
    minted.
    @raise Invalid_argument on a handle that was never allocated. *)

val find : 'a t -> int -> 'a option
(** Like {!get} but [None] for stale or unallocated handles. *)

val free : 'a t -> int -> unit
(** Recycle the handle's slot: the stored generation is bumped
    (invalidating outstanding handles) and the slot returns to its
    shard's free list.
    @raise Stale if the handle is already stale (e.g. double free). *)

val iter_live : 'a t -> (handle:int -> 'a -> unit) -> unit
(** Visit every live entry with its current handle.  The walk is
    lock-free and racy by design: entries freed or allocated during the
    scan may or may not be visited, so callers must re-validate each
    candidate (the reaper's deflation handshake does).  Cost is linear
    in the highest slot ever allocated (a monotone mark, never lowered
    by {!free}), not in the table's capacity: a table that never grew
    past slot [n] costs [n] cell reads per walk. *)

val allocated : 'a t -> int
(** Total allocations ever (slot reuses included) — the census. *)

val live : 'a t -> int
(** Allocations minus frees: entries currently in the table. *)

val reuses : 'a t -> int
(** Allocations that were served from a free list. *)

val frees : 'a t -> int
val shard_count : 'a t -> int
val slot_width : 'a t -> int

val slot_of_handle : 'a t -> int -> int
val generation_of_handle : 'a t -> int -> int

val shard_of_handle : 'a t -> int -> int
(** The allocation shard that owns the handle's slot (slots are striped
    by shard, so this is stable for the handle's lifetime) — the
    aggregation key the deflation controller groups its per-monitor
    observations under. *)
