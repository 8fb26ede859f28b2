let depth_buckets = 64 (* depths >= 63 share the last bucket *)

(* A per-thread block is a flat [int array] of counters and depth
   buckets.  Only the block's current holder writes it.  Every acquire
   and release kind, and the depth-1 bucket, come first: a lock episode
   touches only the block's first eight words, which keeps the working
   set small when thousands of fibers each own a block.  Depth 0 is
   never recorded (an acquisition leaves the count at 1 or more), so
   the buckets start at depth 1.  An unlocked acquire always leaves
   depth 1, so it books only [c_acquires_unlocked]; [snapshot] adds
   that count into the depth-1 bucket. *)
let c_acquires_unlocked = 0
let c_acquires_nested = 1
let c_acquires_fat_fast = 2
let c_acquires_fat_queued = 3
let c_releases_fast = 4
let c_releases_nested = 5
let c_releases_fat = 6
let c_depths = 6 (* depth bucket d >= 1 lives at [c_depths + d] *)
let c_contended_spins = c_depths + depth_buckets
let c_contended_episodes = c_contended_spins + 1
let c_inflations_contention = c_contended_spins + 2
let c_inflations_wait = c_contended_spins + 3
let c_inflations_overflow = c_contended_spins + 4
let c_wait_ops = c_contended_spins + 5
let c_notify_ops = c_contended_spins + 6
let c_notify_all_ops = c_contended_spins + 7
let c_objects_synchronized = c_contended_spins + 8
let block_size = c_objects_synchronized + 1

(* The table's "no block yet" sentinel, told apart by physical
   equality; it is never written. *)
let no_block : int array = [||]

type t = {
  blocks : int array array; (* by thread index: that index's block, or [no_block] *)
  (* Every block ever created, newest first.  Blocks are only added, so
     [snapshot] and [reset] walk exactly the indices that recorded. *)
  registered : int array list Atomic.t;
  deflations : int Atomic.t; (* recorded by the deflater, which has no env *)
  (* Immutable assoc list behind an atomic: lookups are plain reads of
     a consistent snapshot, and key creation is a CAS — no mutex, no
     read/publish race. *)
  extra : (string * int Atomic.t) list Atomic.t;
  (* Gauges are sampled at snapshot time (e.g. live monitors); they are
     registered once at scheme creation, before any concurrency. *)
  gauges : (string * (unit -> int)) list Atomic.t;
}

let create () =
  {
    blocks = Array.make (Tl_runtime.Tid.max_index + 1) no_block;
    registered = Atomic.make [];
    deflations = Atomic.make 0;
    extra = Atomic.make [];
    gauges = Atomic.make [];
  }

let reset t =
  List.iter (fun b -> Array.fill b 0 block_size 0) (Atomic.get t.registered);
  Atomic.set t.deflations 0;
  List.iter (fun (_, a) -> Atomic.set a 0) (Atomic.get t.extra)

let block_count t = List.length (Atomic.get t.registered)

(* First record by [tid] in this [t]: create its block and publish it.
   The table slot is a plain store: only the index's holder reads it,
   and a later holder is ordered after this one by the tid lease. *)
let new_block t tid =
  let b = Array.make block_size 0 in
  t.blocks.(tid) <- b;
  let rec register () =
    let l = Atomic.get t.registered in
    if not (Atomic.compare_and_set t.registered l (b :: l)) then register ()
  in
  register ();
  b

let blocks t = t.blocks

let[@inline] block t tid =
  let b = t.blocks.(tid) in
  if b != no_block then b else new_block t tid

let[@inline] add b i n = Array.unsafe_set b i (Array.unsafe_get b i + n)
let[@inline] bump b i = add b i 1
(* Int tests, not [min]/[max]: those are out-of-line polymorphic
   compares. *)
let[@inline] bump_depth b depth =
  let d = if depth < 1 then 1 else if depth < depth_buckets then depth else depth_buckets - 1 in
  bump b (c_depths + d)

(* The field test spares the common case (an object already counted) a
   call into another module. *)
let[@inline] record_first_sync b (obj : Tl_heap.Obj_model.t) =
  if (not obj.ever_synced) && Tl_heap.Obj_model.mark_synced obj then
    bump b c_objects_synchronized

let[@inline] record_acquire_unlocked t ~tid obj =
  let b = block t tid in
  bump b c_acquires_unlocked;
  record_first_sync b obj

let[@inline] record_acquire_nested t ~tid ~depth =
  let b = block t tid in
  bump b c_acquires_nested;
  bump_depth b depth

let record_acquire_fat t ~tid obj ~queued ~depth =
  let b = block t tid in
  bump b (if queued then c_acquires_fat_queued else c_acquires_fat_fast);
  bump_depth b depth;
  record_first_sync b obj

let record_contended_spin t ~tid ~spins =
  let b = block t tid in
  bump b c_contended_episodes;
  add b c_contended_spins spins

let[@inline] record_release t ~tid kind =
  bump (block t tid)
    (match kind with
    | `Fast -> c_releases_fast
    | `Nested -> c_releases_nested
    | `Fat -> c_releases_fat)

let record_inflation t ~tid cause =
  bump (block t tid)
    (match cause with
    | `Contention -> c_inflations_contention
    | `Wait -> c_inflations_wait
    | `Overflow -> c_inflations_overflow)

let record_wait t ~tid = bump (block t tid) c_wait_ops
let record_notify t ~tid = bump (block t tid) c_notify_ops
let record_notify_all t ~tid = bump (block t tid) c_notify_all_ops
let record_deflation t = Atomic.incr t.deflations
let deflation_count t = Atomic.get t.deflations

type counter = int Atomic.t

let rec counter t key =
  let l = Atomic.get t.extra in
  match List.assoc_opt key l with
  | Some a -> a
  | None ->
      let a = Atomic.make 0 in
      if Atomic.compare_and_set t.extra l ((key, a) :: l) then a else counter t key

let count c n = ignore (Atomic.fetch_and_add c n)

let register_gauge t key f =
  let rec add () =
    let l = Atomic.get t.gauges in
    let l' = (key, f) :: List.remove_assoc key l in
    if not (Atomic.compare_and_set t.gauges l l') then add ()
  in
  add ()

type snapshot = {
  acquires_unlocked : int;
  acquires_nested : int;
  acquires_fat_fast : int;
  acquires_fat_queued : int;
  contended_spins : int;
  contended_episodes : int;
  releases_fast : int;
  releases_nested : int;
  releases_fat : int;
  inflations_contention : int;
  inflations_wait : int;
  inflations_overflow : int;
  wait_ops : int;
  notify_ops : int;
  notify_all_ops : int;
  deflations : int;
  objects_synchronized : int;
  depth_hist : (int * int) list;
  extra : (string * int) list;
}

let snapshot t =
  let sum = Array.make block_size 0 in
  List.iter
    (fun b ->
      for i = 0 to block_size - 1 do
        sum.(i) <- sum.(i) + b.(i)
      done)
    (Atomic.get t.registered);
  sum.(c_depths + 1) <- sum.(c_depths + 1) + sum.(c_acquires_unlocked);
  let depth_hist = ref [] in
  for d = depth_buckets - 1 downto 1 do
    let c = sum.(c_depths + d) in
    if c > 0 then depth_hist := (d, c) :: !depth_hist
  done;
  let extra =
    List.rev_map (fun (k, a) -> (k, Atomic.get a)) (Atomic.get t.extra)
    @ List.rev_map (fun (k, f) -> (k, f ())) (Atomic.get t.gauges)
  in
  {
    acquires_unlocked = sum.(c_acquires_unlocked);
    acquires_nested = sum.(c_acquires_nested);
    acquires_fat_fast = sum.(c_acquires_fat_fast);
    acquires_fat_queued = sum.(c_acquires_fat_queued);
    contended_spins = sum.(c_contended_spins);
    contended_episodes = sum.(c_contended_episodes);
    releases_fast = sum.(c_releases_fast);
    releases_nested = sum.(c_releases_nested);
    releases_fat = sum.(c_releases_fat);
    inflations_contention = sum.(c_inflations_contention);
    inflations_wait = sum.(c_inflations_wait);
    inflations_overflow = sum.(c_inflations_overflow);
    wait_ops = sum.(c_wait_ops);
    notify_ops = sum.(c_notify_ops);
    notify_all_ops = sum.(c_notify_all_ops);
    deflations = Atomic.get t.deflations;
    objects_synchronized = sum.(c_objects_synchronized);
    depth_hist = !depth_hist;
    extra;
  }

let total_acquires s =
  s.acquires_unlocked + s.acquires_nested + s.acquires_fat_fast + s.acquires_fat_queued

let total_inflations s = s.inflations_contention + s.inflations_wait + s.inflations_overflow

let depth_count s d =
  match List.assoc_opt d s.depth_hist with Some c -> c | None -> 0

let depth_fraction s d =
  let total = total_acquires s in
  if total = 0 then 0.0 else float_of_int (depth_count s d) /. float_of_int total

let depth_fraction_at_least s d =
  let total = total_acquires s in
  if total = 0 then 0.0
  else
    let n = List.fold_left (fun acc (depth, c) -> if depth >= d then acc + c else acc) 0 s.depth_hist in
    float_of_int n /. float_of_int total

let syncs_per_object s =
  if s.objects_synchronized = 0 then 0.0
  else float_of_int (total_acquires s) /. float_of_int s.objects_synchronized

let pp ppf s =
  let f fmt = Format.fprintf ppf fmt in
  f "acquires: unlocked=%d nested=%d fat_fast=%d fat_queued=%d (total %d)@\n"
    s.acquires_unlocked s.acquires_nested s.acquires_fat_fast s.acquires_fat_queued
    (total_acquires s);
  f "releases: fast=%d nested=%d fat=%d@\n" s.releases_fast s.releases_nested s.releases_fat;
  f "inflations: contention=%d wait=%d overflow=%d; deflations=%d@\n" s.inflations_contention
    s.inflations_wait s.inflations_overflow s.deflations;
  f "contention: episodes=%d spins=%d@\n" s.contended_episodes s.contended_spins;
  f "wait/notify/notifyAll: %d/%d/%d@\n" s.wait_ops s.notify_ops s.notify_all_ops;
  f "objects synchronized: %d (%.1f syncs/object)@\n" s.objects_synchronized
    (syncs_per_object s);
  f "depth histogram:";
  List.iter (fun (d, c) -> f " %d:%d" d c) s.depth_hist;
  List.iter (fun (k, v) -> f "@\n%s=%d" k v) s.extra
