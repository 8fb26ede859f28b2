(** What the baselines share: the statistics and trace sink of
    jdk111, ibm112, mcs and nosync ({!t}), and the monitor operations
    of the two whose objects map to a cached [Fatlock] (jdk111,
    ibm112).  Each operation runs on the monitor the scheme found for
    the object, records itself in the statistics and, when tracing,
    emits its monitor-protocol event ([Tl_events.Oracle.Monitor]) while
    the monitor is held: [Acquire_fat] or [Acquire_fat_queued] once it
    is entered, [Release_fat] and [Wait_op] before it is given up,
    [Notify_op]/[Notify_all_op] after the notification.  [Fat_only]
    writes the same operations out. *)

type t = private {
  stats : Tl_core.Lock_stats.t;
  events : Tl_events.Sink.t;
  tracing : bool;  (** [Sink.enabled events], cached *)
}

val create : ?events:Tl_events.Sink.t -> unit -> t
(** Fresh statistics; [events] defaults to [Sink.disabled]. *)

val emit : t -> Tl_runtime.Runtime.env -> Tl_events.Event.kind -> Tl_heap.Obj_model.t -> unit
(** One event on the object, for the schemes whose monitor is not a
    [Fatlock] (mcs, nosync).  Guard each call with [t.tracing], and emit
    while the object is held (see [Tl_events.Sink]). *)

val acquire : t -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> Tl_monitor.Fatlock.t -> unit
val release : t -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> Tl_monitor.Fatlock.t -> unit

val wait :
  ?timeout:float ->
  t ->
  Tl_runtime.Runtime.env ->
  Tl_heap.Obj_model.t ->
  Tl_monitor.Fatlock.t ->
  unit

val notify : t -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> Tl_monitor.Fatlock.t -> unit
val notify_all : t -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> Tl_monitor.Fatlock.t -> unit
