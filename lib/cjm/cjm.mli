(** Compact Java Monitors: the headerless locking scheme.

    Dice & Kogan's counterpoint to the thin-lock paper: instead of
    spending header bits on a lock word, keep {e no} per-object lock
    state at all.  Objects map to monitors through a transient
    hash-based side table, keyed on object identity, and an entry
    exists only while the object is locked or contended:

    - An uncontended acquire claims the object's table entry inline
      (owner + depth fields, no [Fatlock]) under the entry's shard
      stripe — the "hash-lock claim" that replaces the header CAS.
    - First contention (or a [wait]) materialises a real monitor with
      [Fatlock.create_locked], transferring the inline owner and depth,
      and emits [Event.Cjm_monitor_create].
    - The monitor lifecycle is trivial: when the last pinned operation
      leaves and the monitor is idle (unowned, no queue, no wait set),
      the unpinner removes the entry and emits
      [Event.Cjm_monitor_evaporate].  No deflation-in-progress bit, no
      handshake, no reaper — the Tasuki machinery the thin scheme needs
      simply has no counterpart here.

    The table is open-addressed with linear probing and backward-shift
    deletion (no tombstones, so unbounded churn never decays a probe
    sequence), striped into independently locked shards, with per-shard
    free lists recycling entry records.  Inline nesting depth is a full
    machine int: CJM has no count-width ceiling and therefore no
    overflow inflation. *)

type config = {
  shards : int;  (** stripe count, rounded up to a power of two *)
  initial_capacity : int;  (** per-shard slot count, power of two *)
}

val default_config : config
(** 64 shards, 64 slots each. *)

type ctx

val name : string

val create : Tl_runtime.Runtime.t -> ctx

val create_with :
  ?config:config -> ?events:Tl_events.Sink.t -> Tl_runtime.Runtime.t -> ctx

val acquire : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit
val release : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit

val wait :
  ?timeout:float -> ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit

val notify : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit
val notify_all : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit
val stats : ctx -> Tl_core.Lock_stats.t
val holds : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> bool

(** {1 Table census — conservation invariants, pinned by test} *)

val live_entries : ctx -> int
(** Entries currently in the table (inline-held + inflated + pinned),
    summed across shards under their stripes.  Zero once every lock is
    released and every operation has unpinned. *)

val monitors_created : ctx -> int
(** Monitors ever materialised ([Cjm_monitor_create] census). *)

val monitors_evaporated : ctx -> int
(** Monitors ever evaporated.  [monitors_created ctx -
    monitors_evaporated ctx] is the number of live fat monitors; it
    must return to zero when the table drains. *)
