(** The Sun JDK 1.1.1 baseline: an external monitor cache.

    "Monitors are kept outside of the objects to avoid the space cost,
    and are looked up in a monitor cache.  Unfortunately this is not
    only inefficient, it does not scale because the monitor cache
    itself must be locked during lookups" (paper §1).  Every monitor
    operation therefore takes the global cache mutex (twice: once to
    pin the entry, once to unpin it), looks the object up in a hash
    table, and then operates on the fat lock found there.

    Monitors of fully-released objects are recycled through a bounded
    free list; once the working set of locked objects exceeds the
    cache capacity the free list thrashes — each operation pays an
    eviction plus a re-allocation — which is the behaviour behind the
    MultiSync cliff in Fig. 4 (§3.3).

    Extra statistics keys: [cache.lookups], [cache.misses],
    [cache.recycles], [cache.free_hits]. *)

type params = {
  cache_capacity : int;
      (** Resident monitors above which fully-released entries are
          evicted (default 64). *)
  free_list_capacity : int;  (** Recycled monitor structures kept (default 64). *)
}

val default_params : params

include Tl_core.Scheme_intf.S

val create_with : ?params:params -> ?events:Tl_events.Sink.t -> Tl_runtime.Runtime.t -> ctx
(** [events] (default [Sink.disabled]) receives the monitor-protocol
    stream that [Monitor_ops] describes. *)

val resident_monitors : ctx -> int
(** Entries currently in the cache (for tests). *)

(** {1 The cache as a layer}

    {!Ibm112} is this cache "slightly modified to record locking
    frequency" (paper §3): it builds its hot locks over a cache made by
    {!layered} and runs its cold objects through {!with_monitor}. *)

type entry = {
  fat : Tl_monitor.Fatlock.t;
  mutable refs : int;
      (** pins: operations in flight on the entry.  An entry is evicted
          only at 0, so a layer that keeps the monitor for good (a hot
          slot) adds a pin it never removes. *)
  mutable uses : int;
      (** locking frequency, counted by the layer's [on_pin]; the cache
          zeroes it when it evicts the entry and never reads it *)
}

val layered :
  on_pin:(Tl_heap.Obj_model.t -> entry -> unit) -> params -> Monitor_ops.t -> ctx
(** A cache that calls [on_pin obj entry] on every pin, after the
    lookup, under the cache mutex.  [create_with] is [layered] with an
    [on_pin] that does nothing. *)

val with_monitor :
  ctx ->
  Tl_runtime.Runtime.env ->
  Tl_heap.Obj_model.t ->
  (Monitor_ops.t ->
  Tl_runtime.Runtime.env ->
  Tl_heap.Obj_model.t ->
  Tl_monitor.Fatlock.t ->
  unit) ->
  unit
(** Run one [Monitor_ops] operation on the object's cached monitor,
    pinned for its duration. *)
