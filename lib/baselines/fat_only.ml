open Tl_core
module Fatlock = Tl_monitor.Fatlock
module Montable = Tl_monitor.Montable
module Obj_model = Tl_heap.Obj_model
module Header = Tl_heap.Header
module Ev = Tl_events.Event

(* The operations are [Monitor_ops]'s, written out here: this control
   measures the fat-lock machinery itself, and the extra call into
   another module per operation read 74.4 against 68.8 ns on
   [micro -k sync] ([-opaque] dev build, 2-vCPU host). *)
type ctx = {
  montable : Montable.t;
  stats : Lock_stats.t;
  backend : Fatlock.backend;
  events : Tl_events.Sink.t;
  tracing : bool; (* [Sink.enabled events], cached as in [Thin] *)
}

let name = "fat"

let create_with ?(backend = Fatlock.Parker) ?(events = Tl_events.Sink.disabled) _runtime =
  {
    montable = Montable.create ();
    stats = Lock_stats.create ();
    backend;
    events;
    tracing = Tl_events.Sink.enabled events;
  }

let create runtime = create_with runtime
let stats ctx = ctx.stats

let my_index (env : Tl_runtime.Runtime.env) = env.descriptor.Tl_runtime.Tid.index

let emit ctx env kind obj =
  Tl_events.Sink.emit ctx.events ~tid:(my_index env) ~kind ~arg:(Obj_model.id obj)

(* Find the object's monitor, installing one on first use.  Losing the
   installation race frees the unused slot back to the table. *)
let rec monitor_of ctx obj =
  let lw = Obj_model.lockword obj in
  let word = Atomic.get lw in
  if Header.is_inflated word then Montable.get ctx.montable (Header.monitor_index word)
  else begin
    let fat = Fatlock.create ~backend:ctx.backend () in
    let monitor_index = Montable.allocate ctx.montable ~lockword:lw fat in
    let inflated = Header.inflated_word ~hdr:(Header.hdr_bits word) ~monitor_index in
    if Atomic.compare_and_set lw word inflated then fat
    else begin
      Montable.free ctx.montable monitor_index;
      monitor_of ctx obj
    end
  end

let acquire ctx env obj =
  let fat = monitor_of ctx obj in
  let queued = not (Fatlock.try_acquire env fat) in
  if queued then Fatlock.acquire env fat;
  let depth = Fatlock.count fat in
  Lock_stats.record_acquire_fat ctx.stats ~tid:(my_index env) obj ~queued ~depth;
  if ctx.tracing then emit ctx env (if queued then Ev.Acquire_fat_queued else Ev.Acquire_fat) obj

let release ctx env obj =
  let fat = monitor_of ctx obj in
  (* stamped before the monitor changes hands *)
  if ctx.tracing then emit ctx env Ev.Release_fat obj;
  Fatlock.release env fat;
  Lock_stats.record_release ctx.stats ~tid:(my_index env) `Fat

let wait ?timeout ctx env obj =
  Lock_stats.record_wait ctx.stats ~tid:(my_index env);
  let fat = monitor_of ctx obj in
  if ctx.tracing then emit ctx env Ev.Wait_op obj;
  Fatlock.wait ?timeout env fat

let notify ctx env obj =
  Lock_stats.record_notify ctx.stats ~tid:(my_index env);
  Fatlock.notify env (monitor_of ctx obj);
  if ctx.tracing then emit ctx env Ev.Notify_op obj

let notify_all ctx env obj =
  Lock_stats.record_notify_all ctx.stats ~tid:(my_index env);
  Fatlock.notify_all env (monitor_of ctx obj);
  if ctx.tracing then emit ctx env Ev.Notify_all_op obj

let holds ctx env obj =
  let word = Atomic.get (Obj_model.lockword obj) in
  Header.is_inflated word
  && Fatlock.holds env (Montable.get ctx.montable (Header.monitor_index word))
