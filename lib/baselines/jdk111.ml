open Tl_core
module Fatlock = Tl_monitor.Fatlock
module Obj_model = Tl_heap.Obj_model

type params = { cache_capacity : int; free_list_capacity : int }

let default_params = { cache_capacity = 64; free_list_capacity = 64 }

type entry = {
  fat : Fatlock.t;
  mutable refs : int; (* threads inside an operation on this entry *)
}

type ctx = {
  cache_mutex : Mutex.t;
  table : (int, entry) Hashtbl.t;
  mutable free : entry list;
  mutable free_len : int;
  params : params;
  ops : Monitor_ops.t;
  lookups : Lock_stats.counter;
  misses : Lock_stats.counter;
  free_hits : Lock_stats.counter;
  recycles : Lock_stats.counter;
}

let name = "jdk111"

let create_with ?(params = default_params) ?events _runtime =
  let ops = Monitor_ops.create ?events () in
  let counter = Lock_stats.counter ops.stats in
  {
    cache_mutex = Mutex.create ();
    table = Hashtbl.create 64;
    free = [];
    free_len = 0;
    params;
    ops;
    lookups = counter "cache.lookups";
    misses = counter "cache.misses";
    free_hits = counter "cache.free_hits";
    recycles = counter "cache.recycles";
  }

let create runtime = create_with runtime
let stats ctx = ctx.ops.stats

(* Look the object's monitor up in the cache, pinning it so that it
   cannot be recycled while this operation is in flight.  Holds the
   global cache mutex for the duration of the lookup — the scalability
   bottleneck the paper calls out. *)
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
          | [] -> { fat = Fatlock.create (); refs = 0 }
        in
        Hashtbl.replace ctx.table id entry;
        entry
  in
  entry.refs <- entry.refs + 1;
  Mutex.unlock ctx.cache_mutex;
  entry

(* Unpin; if the monitor is completely idle and the cache is over
   capacity, evict it (recycling the structure through the free
   list). *)
let unpin ctx obj entry =
  Mutex.lock ctx.cache_mutex;
  entry.refs <- entry.refs - 1;
  if
    entry.refs = 0
    && Fatlock.owner entry.fat = 0
    && Fatlock.entry_queue_length entry.fat = 0
    && Fatlock.wait_set_length entry.fat = 0
    && Hashtbl.length ctx.table > ctx.params.cache_capacity
  then begin
    Hashtbl.remove ctx.table (Obj_model.id obj);
    Lock_stats.count ctx.recycles 1;
    if ctx.free_len < ctx.params.free_list_capacity then begin
      ctx.free <- entry :: ctx.free;
      ctx.free_len <- ctx.free_len + 1
    end
  end;
  Mutex.unlock ctx.cache_mutex

(* Run [op] on the object's pinned monitor, unpinning however it
   ends.  [op] is applied in full, so no closure is built per call. *)
let with_monitor ctx env obj op =
  let entry = pin ctx obj in
  match op ctx.ops env obj entry.fat with
  | () -> unpin ctx obj entry
  | exception e ->
      unpin ctx obj entry;
      raise e

let acquire ctx env obj = with_monitor ctx env obj Monitor_ops.acquire
let release ctx env obj = with_monitor ctx env obj Monitor_ops.release
let wait ?timeout ctx env obj = with_monitor ctx env obj (Monitor_ops.wait ?timeout)
let notify ctx env obj = with_monitor ctx env obj Monitor_ops.notify
let notify_all ctx env obj = with_monitor ctx env obj Monitor_ops.notify_all

let holds ctx env obj =
  Mutex.lock ctx.cache_mutex;
  let held =
    match Hashtbl.find_opt ctx.table (Obj_model.id obj) with
    | Some entry -> Fatlock.holds env entry.fat
    | None -> false
  in
  Mutex.unlock ctx.cache_mutex;
  held

let resident_monitors ctx =
  Mutex.lock ctx.cache_mutex;
  let n = Hashtbl.length ctx.table in
  Mutex.unlock ctx.cache_mutex;
  n
