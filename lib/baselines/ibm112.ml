open Tl_core
module Fatlock = Tl_monitor.Fatlock
module Obj_model = Tl_heap.Obj_model
module Header = Tl_heap.Header

type params = { hot_slots : int; promotion_threshold : int; cache : Jdk111.params }

let default_params = { hot_slots = 32; promotion_threshold = 8; cache = Jdk111.default_params }

type hot = {
  slots : Fatlock.t option array; (* slot 0 unused: index 0 would be ambiguous *)
  mutable used : int;
  threshold : int;
  promotions : Lock_stats.counter;
}

type ctx = {
  cache : Jdk111.ctx; (* the cold path *)
  hot : hot;
  ops : Monitor_ops.t;
  hot_fast_ops : Lock_stats.counter;
}

let name = "ibm112"

(* Hot encoding in the header word: the shape bit marks "hot-lock
   pointer installed", the 23 index bits name the slot — the
   displaced-header trick of the paper, with the 8 low header bits kept
   in place since our word has room for both. *)
let hot_slot_of_word word = if Header.is_inflated word then Header.monitor_index word else 0

(* The cache's [on_pin], so under its mutex: record the use, and at the
   threshold install the hot pointer if a slot is free.  Slots are never
   given back, so an entry that finds none at its threshold would find
   none later: testing [=] promotes each residency at most once.  The
   promoted entry keeps a pin for good, so the cache never evicts the
   monitor its slot holds. *)
let promote hot obj (entry : Jdk111.entry) =
  entry.uses <- entry.uses + 1;
  if entry.uses = hot.threshold && hot.used < Array.length hot.slots - 1 then begin
    hot.used <- hot.used + 1;
    hot.slots.(hot.used) <- Some entry.fat;
    entry.refs <- entry.refs + 1;
    let word = Atomic.get (Obj_model.lockword obj) in
    Atomic.set (Obj_model.lockword obj)
      (Header.inflated_word ~hdr:(Header.hdr_bits word) ~monitor_index:hot.used);
    Lock_stats.count hot.promotions 1
  end

let create_with ?(params = default_params) ?events _runtime =
  let ops = Monitor_ops.create ?events () in
  let counter = Lock_stats.counter ops.stats in
  let hot =
    {
      slots = Array.make (params.hot_slots + 1) None;
      used = 0;
      threshold = max 1 params.promotion_threshold;
      promotions = counter "hot.promotions";
    }
  in
  {
    cache = Jdk111.layered ~on_pin:(promote hot) params.cache ops;
    hot;
    ops;
    hot_fast_ops = counter "hot.fast_ops";
  }

let create runtime = create_with runtime
let stats ctx = ctx.ops.stats

let hot_lock ctx slot =
  match ctx.hot.slots.(slot) with
  | Some fat -> fat
  | None -> invalid_arg "Ibm112: hot slot not populated"

(* Run [op] on the object's monitor: through the header's hot pointer,
   or through the cache.  [op] is applied in full, so no closure is
   built per call. *)
let with_monitor ctx env obj op =
  let slot = hot_slot_of_word (Atomic.get (Obj_model.lockword obj)) in
  if slot > 0 then begin
    Lock_stats.count ctx.hot_fast_ops 1;
    op ctx.ops env obj (hot_lock ctx slot)
  end
  else Jdk111.with_monitor ctx.cache env obj op

let acquire ctx env obj = with_monitor ctx env obj Monitor_ops.acquire
let release ctx env obj = with_monitor ctx env obj Monitor_ops.release
let wait ?timeout ctx env obj = with_monitor ctx env obj (Monitor_ops.wait ?timeout)
let notify ctx env obj = with_monitor ctx env obj Monitor_ops.notify
let notify_all ctx env obj = with_monitor ctx env obj Monitor_ops.notify_all

let holds ctx env obj =
  let slot = hot_slot_of_word (Atomic.get (Obj_model.lockword obj)) in
  if slot > 0 then Fatlock.holds env (hot_lock ctx slot) else Jdk111.holds ctx.cache env obj

let hot_slots_used ctx = ctx.hot.used
let resident_monitors ctx = Jdk111.resident_monitors ctx.cache
