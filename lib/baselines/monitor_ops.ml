open Tl_core
module Fatlock = Tl_monitor.Fatlock
module Ev = Tl_events.Event

type t = { stats : Lock_stats.t; events : Tl_events.Sink.t; tracing : bool }

let create ?(events = Tl_events.Sink.disabled) () =
  { stats = Lock_stats.create (); events; tracing = Tl_events.Sink.enabled events }

let my_index (env : Tl_runtime.Runtime.env) = env.descriptor.Tl_runtime.Tid.index

(* Every call site is guarded by [if t.tracing], and each event is
   emitted while this thread holds the monitor (see [Tl_events.Sink]). *)
let emit t env kind obj =
  Tl_events.Sink.emit t.events ~tid:(my_index env) ~kind ~arg:(Tl_heap.Obj_model.id obj)

let acquire t env obj fat =
  let queued = not (Fatlock.try_acquire env fat) in
  if queued then Fatlock.acquire env fat;
  Lock_stats.record_acquire_fat t.stats ~tid:(my_index env) obj ~queued ~depth:(Fatlock.count fat);
  if t.tracing then emit t env (if queued then Ev.Acquire_fat_queued else Ev.Acquire_fat) obj

(* Stamped before the monitor changes hands; a release by a non-owner
   raises after its event, and the oracle flags it. *)
let release t env obj fat =
  if t.tracing then emit t env Ev.Release_fat obj;
  Fatlock.release env fat;
  Lock_stats.record_release t.stats ~tid:(my_index env) `Fat

let wait ?timeout t env obj fat =
  Lock_stats.record_wait t.stats ~tid:(my_index env);
  if t.tracing then emit t env Ev.Wait_op obj;
  Fatlock.wait ?timeout env fat

let notify t env obj fat =
  Lock_stats.record_notify t.stats ~tid:(my_index env);
  Fatlock.notify env fat;
  if t.tracing then emit t env Ev.Notify_op obj

let notify_all t env obj fat =
  Lock_stats.record_notify_all t.stats ~tid:(my_index env);
  Fatlock.notify_all env fat;
  if t.tracing then emit t env Ev.Notify_all_op obj
