(** Monitor-index table.

    An inflated lock word stores a 23-bit monitor field; this table is
    the vector mapping it to fat locks (paper Fig. 2).  Lookup is the
    fast operation — "the fat lock pointer is simply obtained by
    shifting the monitor index to the right and indexing into the
    vector" (§3.3) — so reads are lock-free array fetches; allocation
    (rare: once per inflation) takes one shard's mutex.

    The paper never recycles indices because inflation is permanent for
    the lifetime of the object (§2.3).  Our deflation extension does
    recycle them, so the 23-bit field is split into an 18-bit {e slot}
    and a 5-bit {e generation}: freeing a slot bumps its generation,
    and a thread acting on a stale inflated word sees {!find} return
    [None] (or {!get} raise {!Stale}) instead of a recycled monitor. *)

type t

type entry = { fat : Fatlock.t; lockword : int Atomic.t }
(** A registered monitor and the atomic lock word of the object it
    inflates — the back-reference the lifecycle reaper follows to run
    the deflation handshake on census candidates.  (Only the atomic
    cell is stored; this library has no view of the heap's object
    model.) *)

exception Stale of int

val slot_width : int
(** 18 — must equal [Tl_heap.Header.monitor_slot_width]. *)

val generation_width : int
(** 5 — must equal [Tl_heap.Header.monitor_generation_width]. *)

val max_slot : int

val create : ?shards:int -> unit -> t
(** [shards] is the allocation shard count (default 8, rounded up to a
    power of two). *)

val allocate : ?shard_hint:int -> t -> lockword:int Atomic.t -> Fatlock.t -> int
(** Register a fat lock, returning its handle (≥ 1), which fits the
    23-bit monitor field.  [lockword] is the inflating object's atomic
    lock word (kept as the reaper's back-reference).  [shard_hint]
    should identify the allocating thread or domain so concurrent
    inflations spread across shards.
    @raise Failure if all 2^18 - 1 slots are live. *)

val get : t -> int -> Fatlock.t
(** [get t handle] is the fat lock behind [handle]; O(1), lock-free.
    @raise Stale if the monitor was deflated and its slot reclaimed.
    @raise Invalid_argument on a never-allocated handle. *)

val find : t -> int -> Fatlock.t option
(** Like {!get}, [None] on stale/unallocated handles — the form the
    lock protocol uses where a stale read is survivable. *)

val iter_live : t -> (handle:int -> entry -> unit) -> unit
(** Walk the live-monitor census (see {!Index_table.iter_live} for the
    racy-snapshot caveats).  Cost is O(highest slot ever allocated);
    callers with nothing live skip the walk by testing {!live}. *)

val free : t -> int -> unit
(** Return a deflated monitor's slot for reuse.  Caller must guarantee
    no live references (the deflation quiescence contract).
    @raise Stale on double free. *)

val allocated : t -> int
(** Number of monitors ever created — the inflation census. *)

val live : t -> int
(** Monitors currently in the table (allocated minus freed). *)

val reuses : t -> int
(** Allocations that recycled a previously freed slot. *)

val frees : t -> int
val shard_count : t -> int

val shard_of_handle : t -> int -> int
(** The allocation shard owning the handle's slot — the key the
    deflation controller aggregates per-monitor observations under. *)
