(** Always-inflated control scheme.

    Every object gets a dedicated fat monitor on first use, installed
    in its header word with the inflated encoding.  No monitor cache,
    no thin state: this isolates the cost of the fat-lock machinery
    itself, and is the natural control for measuring what thin locks
    save on the uncontended paths. *)

include Tl_core.Scheme_intf.S

val create_with :
  ?backend:Tl_monitor.Fatlock.backend -> ?events:Tl_events.Sink.t -> Tl_runtime.Runtime.t -> ctx
(** [create] with an explicit contended-path backend for the monitors
    (default [Parker]; see [Fatlock.backend]).  [events] (default
    [Sink.disabled]) receives the monitor-protocol stream that
    [Monitor_ops] describes. *)
