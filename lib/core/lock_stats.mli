(** Lock-operation statistics.

    Counters classify every acquire into the paper's scenario ranking
    (§2: unlocked ≫ shallow nested ≫ deep nested ≫ contended without
    queue ≫ contended with queue) and record the nesting depth of every
    acquisition, which is what Figure 3 plots.

    Operations that run with an env record into a {e per-thread block}:
    a flat [int array] of counters and depth buckets owned by the
    recording thread's index ([~tid], the env's [descriptor.index]).
    The owner finds its block in a per-[t] table, creating and
    registering it on first use, and increments it with plain writes —
    no shared cache line, no atomic, so the uncontended path costs a
    few loads and stores.  This is sound because an index has one live
    holder at a time and the tid table's lease/release order successive
    holders: a recycled index keeps adding to the same block.  All
    recording into one [t] must therefore come from the envs of one
    runtime (two runtimes may lease the same index at once).

    Counters recorded without an env — deflations (the deflater walks
    the monitor table) and the scheme-specific {!add_extra} keys — are
    shared atomics, as are the gauges. *)

type t

val create : unit -> t

val reset : t -> unit
(** Zero every registered block, the deflation count and the extra
    counters.  Call it only while no thread records: a concurrent
    plain increment may survive the reset. *)

val block_count : t -> int
(** Per-thread blocks registered so far: the number of distinct thread
    indices that have recorded into [t] ({!reset} keeps them). *)

(** {1 Block layout — for a scheme's inline fast path}

    A scheme built without cross-module inlining pays a call for every
    [record_*] below.  Its uncontended paths may instead find the
    caller's block in the table from {!blocks} and increment the slots
    named here in place.  This module stays the only definition of the
    layout: a block is an [int array] holding one counter per slot. *)

val blocks : t -> int array array
(** The block table, by thread index.  An index that has not recorded
    yet holds {!no_block}.  The table itself is never replaced, so a
    scheme may cache it at creation. *)

val no_block : int array
(** The "no block yet" sentinel, told apart by physical equality.
    Never write it. *)

val new_block : t -> int -> int array
(** [new_block t tid] creates, publishes and returns [tid]'s block.
    Call it only on [tid]'s first record, from the thread holding that
    index. *)

val c_acquires_unlocked : int
(** Unlocked acquires (scenario 1).  There is no depth slot to bump
    with it: {!snapshot} derives the depth-1 bucket by adding this count
    to the slot at [c_depths + 1]. *)

val c_acquires_nested : int
val c_releases_fast : int
val c_releases_nested : int

val c_objects_synchronized : int
(** Bumped once per object, by the acquire that first sets its
    [ever_synced] flag. *)

val c_depths : int
(** Depth [d] (1 ≤ [d] < {!depth_buckets}) is counted at slot
    [c_depths + d]; deeper acquisitions share the last bucket. *)

val depth_buckets : int

(** {1 Recording — called by locking schemes} *)

val record_acquire_unlocked : t -> tid:int -> Tl_heap.Obj_model.t -> unit
(** Scenario 1: CAS on an unlocked object succeeded (depth 1, which
    {!snapshot} derives from this count). *)

val record_acquire_nested : t -> tid:int -> depth:int -> unit
(** Scenarios 2–3: owner re-locked; [depth] is the lock count after
    this acquire (≥ 2). *)

val record_acquire_fat : t -> tid:int -> Tl_heap.Obj_model.t -> queued:bool -> depth:int -> unit
(** Acquire through a fat monitor, re-entries included ([depth] is the
    lock count after it); [queued] says the thread had to block
    (scenario 5) rather than enter immediately (scenario 4 shape).  The
    schemes with no thin path (fat, jdk111, ibm112) book every acquire
    here, so their [acquires_unlocked] stays 0. *)

val record_contended_spin : t -> tid:int -> spins:int -> unit
(** A thin-lock contender spun [spins] backoff steps before forcing
    inflation (scenario 4). *)

val record_release : t -> tid:int -> [ `Fast | `Nested | `Fat ] -> unit

val record_inflation : t -> tid:int -> [ `Contention | `Wait | `Overflow ] -> unit
val record_wait : t -> tid:int -> unit
val record_notify : t -> tid:int -> unit
val record_notify_all : t -> tid:int -> unit

val record_deflation : t -> unit
(** A fat lock was deflated back to a thin word and its monitor-table
    slot reclaimed (the quiescence-point deflation extension).  Needs
    no env: the count is a shared atomic. *)

val deflation_count : t -> int

val add_extra : t -> string -> int -> unit
(** Scheme-specific counters (e.g. the baselines' monitor-cache probes
    and evictions); keys are created on first use.  Lock-free. *)

val register_gauge : t -> string -> (unit -> int) -> unit
(** Register a sampled value (e.g. live monitors) evaluated at
    {!snapshot} time and reported alongside the [extra] counters.
    Re-registering a key replaces the gauge; {!reset} leaves gauges
    alone. *)

(** {1 Snapshots — read by the harness} *)

type snapshot = {
  acquires_unlocked : int;
  acquires_nested : int;
  acquires_fat_fast : int;
  acquires_fat_queued : int;
  contended_spins : int;  (** total backoff steps over all contended episodes *)
  contended_episodes : int;
  releases_fast : int;
  releases_nested : int;
  releases_fat : int;
  inflations_contention : int;
  inflations_wait : int;
  inflations_overflow : int;
  wait_ops : int;
  notify_ops : int;
  notify_all_ops : int;
  deflations : int;  (** quiescence-point deflations (extension) *)
  objects_synchronized : int;
  depth_hist : (int * int) list;  (** (depth, acquires at that depth) *)
  extra : (string * int) list;  (** scheme-specific counters, then gauges *)
}

val snapshot : t -> snapshot
(** Sum the registered blocks and read the shared counters.  Safe while
    threads record: each counter of a live snapshot is at least its
    value in any earlier snapshot (only {!reset} lowers a count). *)

val total_acquires : snapshot -> int
val total_inflations : snapshot -> int

val depth_fraction : snapshot -> int -> float
(** [depth_fraction s d] — fraction of acquires at depth exactly [d]
    (Fig. 3's First/Second/Third columns). *)

val depth_fraction_at_least : snapshot -> int -> float
(** Fraction of acquires at depth ≥ [d] (Fig. 3's "Fourth+"). *)

val syncs_per_object : snapshot -> float
(** Table 1's "Syncs/S.Obj" column. *)

val pp : Format.formatter -> snapshot -> unit
(** Multi-line human-readable dump. *)
