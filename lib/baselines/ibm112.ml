open Tl_core
module Fatlock = Tl_monitor.Fatlock
module Obj_model = Tl_heap.Obj_model
module Header = Tl_heap.Header

type params = {
  hot_slots : int;
  promotion_threshold : int;
  cache_capacity : int;
  free_list_capacity : int;
}

let default_params =
  { hot_slots = 32; promotion_threshold = 8; cache_capacity = 64; free_list_capacity = 64 }

type entry = {
  fat : Fatlock.t;
  mutable refs : int;
  mutable uses : int; (* locking-frequency counter, per the paper *)
  mutable promoted : bool;
}

type ctx = {
  cache_mutex : Mutex.t;
  table : (int, entry) Hashtbl.t;
  mutable free : entry list;
  mutable free_len : int;
  hot : Fatlock.t option array; (* slot 0 unused: index 0 would be ambiguous *)
  mutable hot_used : int;
  params : params;
  ops : Monitor_ops.t;
  lookups : Lock_stats.counter;
  misses : Lock_stats.counter;
  free_hits : Lock_stats.counter;
  recycles : Lock_stats.counter;
  promotions : Lock_stats.counter;
  hot_fast_ops : Lock_stats.counter;
}

let name = "ibm112"

let create_with ?(params = default_params) ?events _runtime =
  let ops = Monitor_ops.create ?events () in
  let counter = Lock_stats.counter ops.stats in
  {
    cache_mutex = Mutex.create ();
    table = Hashtbl.create 64;
    free = [];
    free_len = 0;
    hot = Array.make (params.hot_slots + 1) None;
    hot_used = 0;
    params;
    ops;
    lookups = counter "cache.lookups";
    misses = counter "cache.misses";
    free_hits = counter "cache.free_hits";
    recycles = counter "cache.recycles";
    promotions = counter "hot.promotions";
    hot_fast_ops = counter "hot.fast_ops";
  }

let create runtime = create_with runtime
let stats ctx = ctx.ops.stats

(* Hot encoding in the header word: the shape bit marks "hot-lock
   pointer installed", the 23 index bits name the slot — the
   displaced-header trick of the paper, with the 8 low header bits kept
   in place since our word has room for both. *)
let hot_slot_of_word word = if Header.is_inflated word then Header.monitor_index word else 0

let hot_lock ctx slot =
  match ctx.hot.(slot) with
  | Some fat -> fat
  | None -> invalid_arg "Ibm112: hot slot not populated"

(* Cold path: identical cache discipline to Jdk111, plus the frequency
   accounting that drives promotion. *)
let pin ctx obj =
  Mutex.lock ctx.cache_mutex;
  Lock_stats.count ctx.lookups 1;
  let id = Obj_model.id obj in
  let entry =
    match Hashtbl.find_opt ctx.table id with
    | Some entry -> entry
    | None ->
        Lock_stats.count ctx.misses 1;
        let entry =
          match ctx.free with
          | e :: rest ->
              ctx.free <- rest;
              ctx.free_len <- ctx.free_len - 1;
              Lock_stats.count ctx.free_hits 1;
              e
          | [] -> { fat = Fatlock.create (); refs = 0; uses = 0; promoted = false }
        in
        Hashtbl.replace ctx.table id entry;
        entry
  in
  entry.refs <- entry.refs + 1;
  entry.uses <- entry.uses + 1;
  (* Promotion check: hot object + free slot -> install the hot
     pointer.  Done under the cache mutex so a slot is claimed once. *)
  if
    (not entry.promoted)
    && entry.uses >= ctx.params.promotion_threshold
    && ctx.hot_used < ctx.params.hot_slots
  then begin
    ctx.hot_used <- ctx.hot_used + 1;
    let slot = ctx.hot_used in
    ctx.hot.(slot) <- Some entry.fat;
    entry.promoted <- true;
    let word = Atomic.get (Obj_model.lockword obj) in
    Atomic.set (Obj_model.lockword obj)
      (Header.inflated_word ~hdr:(Header.hdr_bits word) ~monitor_index:slot);
    Lock_stats.count ctx.promotions 1
  end;
  Mutex.unlock ctx.cache_mutex;
  entry

let unpin ctx obj entry =
  Mutex.lock ctx.cache_mutex;
  entry.refs <- entry.refs - 1;
  if
    entry.refs = 0 && (not entry.promoted)
    && Fatlock.owner entry.fat = 0
    && Fatlock.entry_queue_length entry.fat = 0
    && Fatlock.wait_set_length entry.fat = 0
    && Hashtbl.length ctx.table > ctx.params.cache_capacity
  then begin
    Hashtbl.remove ctx.table (Obj_model.id obj);
    Lock_stats.count ctx.recycles 1;
    entry.uses <- 0;
    if ctx.free_len < ctx.params.free_list_capacity then begin
      ctx.free <- entry :: ctx.free;
      ctx.free_len <- ctx.free_len + 1
    end
  end;
  Mutex.unlock ctx.cache_mutex

(* Run [op] on the object's monitor: through the header's hot pointer,
   or pinned in the cache and unpinned however [op] ends.  [op] is
   applied in full, so no closure is built per call. *)
let with_monitor ctx env obj op =
  let slot = hot_slot_of_word (Atomic.get (Obj_model.lockword obj)) in
  if slot > 0 then begin
    Lock_stats.count ctx.hot_fast_ops 1;
    op ctx.ops env obj (hot_lock ctx slot)
  end
  else begin
    let entry = pin ctx obj in
    match op ctx.ops env obj entry.fat with
    | () -> unpin ctx obj entry
    | exception e ->
        unpin ctx obj entry;
        raise e
  end

let acquire ctx env obj = with_monitor ctx env obj Monitor_ops.acquire
let release ctx env obj = with_monitor ctx env obj Monitor_ops.release
let wait ?timeout ctx env obj = with_monitor ctx env obj (Monitor_ops.wait ?timeout)
let notify ctx env obj = with_monitor ctx env obj Monitor_ops.notify
let notify_all ctx env obj = with_monitor ctx env obj Monitor_ops.notify_all

let holds ctx env obj =
  let slot = hot_slot_of_word (Atomic.get (Obj_model.lockword obj)) in
  if slot > 0 then Fatlock.holds env (hot_lock ctx slot)
  else begin
    Mutex.lock ctx.cache_mutex;
    let held =
      match Hashtbl.find_opt ctx.table (Obj_model.id obj) with
      | Some entry -> Fatlock.holds env entry.fat
      | None -> false
    in
    Mutex.unlock ctx.cache_mutex;
    held
  end

let hot_slots_used ctx = ctx.hot_used
