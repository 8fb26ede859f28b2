(** The IBM JDK 1.1.2 baseline: hot locks.

    "The IBM112 implementation assumes that most applications will
    have a small number of heavily used locks.  It therefore
    pre-allocates a small number (32) of hot locks.  The system begins
    by using the default fat locks, slightly modified to record
    locking frequency.  When a fat lock is detected to be hot, a
    pointer to the hot lock is placed in the header of the object"
    (paper §3).

    Cold objects go through the same global monitor cache as
    {!Jdk111}; an object whose monitor's use count crosses the
    promotion threshold while a hot slot is free gets a hot-slot index
    written into its header word, after which its lock operations
    bypass the cache entirely.  Once all slots are taken, later
    heavily-used objects stay cold — the working-set cliff of Figs. 4
    and 5.

    Extra statistics keys: those of the cache, plus [hot.promotions]
    and [hot.fast_ops]. *)

type params = {
  hot_slots : int;  (** Pre-allocated hot locks (default 32, as in the paper). *)
  promotion_threshold : int;
      (** Monitor operations before an object is considered hot
          (default 8). *)
  cache_capacity : int;
  free_list_capacity : int;
}

val default_params : params

include Tl_core.Scheme_intf.S

val create_with : ?params:params -> ?events:Tl_events.Sink.t -> Tl_runtime.Runtime.t -> ctx
(** [events] (default [Sink.disabled]) receives the monitor-protocol
    stream that [Monitor_ops] describes, hot and cold paths alike. *)

val hot_slots_used : ctx -> int
