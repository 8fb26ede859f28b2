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

(** {1 Recording — called by locking schemes} *)

val record_acquire_unlocked : t -> tid:int -> Tl_heap.Obj_model.t -> unit
(** Scenario 1: CAS on an unlocked object succeeded (depth 1). *)

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
