(** The lock-scheme signature: the five Java monitor operations over
    heap objects, plus statistics.  {!Scheme_intf} re-exports it as
    [Scheme_intf.S]; it lives apart so that [Thin] can implement it and
    [Scheme_intf.packed] can still name [Thin.ctx]. *)

module type S = sig
  type ctx
  (** Per-run state: monitor table, caches, statistics.  Independent
      contexts share nothing. *)

  val name : string

  val create : Tl_runtime.Runtime.t -> ctx

  val acquire : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit
  (** Lock the object ([monitorenter]).  Re-entrant. *)

  val release : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit
  (** Unlock the object ([monitorexit]).
      @raise Tl_monitor.Fatlock.Illegal_monitor_state if the calling
      thread does not hold the lock. *)

  val wait : ?timeout:float -> ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit
  (** Java [Object.wait]: release fully, block until notified (or
      timeout), re-acquire.
      @raise Tl_monitor.Fatlock.Illegal_monitor_state if not owner. *)

  val notify : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit
  val notify_all : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit

  val stats : ctx -> Lock_stats.t

  val holds : ctx -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> bool
  (** Does the calling thread currently own the object's lock? *)
end
