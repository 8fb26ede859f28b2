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
  runtime : Tl_runtime.Runtime.t;
  cache_mutex : Mutex.t;
  table : (int, entry) Hashtbl.t;
  mutable free : entry list;
  mutable free_len : int;
  params : params;
  stats : Lock_stats.t;
}

let name = "jdk111"

let create_with ?(params = default_params) runtime =
  {
    runtime;
    cache_mutex = Mutex.create ();
    table = Hashtbl.create 64;
    free = [];
    free_len = 0;
    params;
    stats = Lock_stats.create ();
  }

let create runtime = create_with runtime
let stats ctx = ctx.stats

let my_index (env : Tl_runtime.Runtime.env) = env.descriptor.Tl_runtime.Tid.index

(* Look the object's monitor up in the cache, pinning it so that it
   cannot be recycled while this operation is in flight.  Holds the
   global cache mutex for the duration of the lookup — the scalability
   bottleneck the paper calls out. *)
let pin ctx obj =
  Mutex.lock ctx.cache_mutex;
  Lock_stats.add_extra ctx.stats "cache.lookups" 1;
  let id = Obj_model.id obj in
  let entry =
    match Hashtbl.find_opt ctx.table id with
    | Some entry -> entry
    | None ->
        Lock_stats.add_extra ctx.stats "cache.misses" 1;
        let entry =
          match ctx.free with
          | e :: rest ->
              ctx.free <- rest;
              ctx.free_len <- ctx.free_len - 1;
              Lock_stats.add_extra ctx.stats "cache.free_hits" 1;
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
    Lock_stats.add_extra ctx.stats "cache.recycles" 1;
    if ctx.free_len < ctx.params.free_list_capacity then begin
      ctx.free <- entry :: ctx.free;
      ctx.free_len <- ctx.free_len + 1
    end
  end;
  Mutex.unlock ctx.cache_mutex

let acquire ctx env obj =
  let entry = pin ctx obj in
  let queued = not (Fatlock.try_acquire env entry.fat) in
  if queued then Fatlock.acquire env entry.fat;
  let depth = Fatlock.count entry.fat in
  Lock_stats.record_acquire_fat ctx.stats ~tid:(my_index env) obj ~queued ~depth;
  unpin ctx obj entry

let release ctx env obj =
  let entry = pin ctx obj in
  (match Fatlock.release env entry.fat with
  | () -> Lock_stats.record_release ctx.stats ~tid:(my_index env) `Fat
  | exception e ->
      unpin ctx obj entry;
      raise e);
  unpin ctx obj entry

let wait ?timeout ctx env obj =
  let entry = pin ctx obj in
  Lock_stats.record_wait ctx.stats ~tid:(my_index env);
  (match Fatlock.wait ?timeout env entry.fat with
  | () -> ()
  | exception e ->
      unpin ctx obj entry;
      raise e);
  unpin ctx obj entry

let notify ctx env obj =
  let entry = pin ctx obj in
  Lock_stats.record_notify ctx.stats ~tid:(my_index env);
  (match Fatlock.notify env entry.fat with
  | () -> ()
  | exception e ->
      unpin ctx obj entry;
      raise e);
  unpin ctx obj entry

let notify_all ctx env obj =
  let entry = pin ctx obj in
  Lock_stats.record_notify_all ctx.stats ~tid:(my_index env);
  (match Fatlock.notify_all env entry.fat with
  | () -> ()
  | exception e ->
      unpin ctx obj entry;
      raise e);
  unpin ctx obj entry

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
