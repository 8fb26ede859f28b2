exception Stale of int

(* Cells are immutable records behind per-cell atomics.  Storage is a
   two-level spine of fixed-size chunks: chunks are allocated once and
   never move, so a reader needs no lock and a growing table never
   copies live cells (growth replaces only the spine, whose entries are
   immutable chunk pointers). *)
type 'a cell = { value : 'a option; generation : int }

type shard = {
  lock : Mutex.t;
  mutable free : int list; (* recycled slots owned by this shard *)
  mutable fresh : int; (* next never-used slot in this shard's stripe *)
}

type 'a t = {
  spine : 'a cell Atomic.t array array Atomic.t;
  grow_mutex : Mutex.t; (* spine growth only; taken under a shard lock *)
  shards : shard array; (* length is a power of two *)
  slot_width : int;
  generation_mask : int;
  max_slot : int;
  (* Highest slot ever allocated (0: none): a monotone max that bounds
     the census walk.  Raised after the slot's chunk is published. *)
  high : int Atomic.t;
  allocations : int Atomic.t; (* total ever, the inflation census *)
  reuses : int Atomic.t; (* allocations served from a free list *)
  frees : int Atomic.t;
}

let chunk_width = 9
let chunk_size = 1 lsl chunk_width
let chunk_mask = chunk_size - 1

let default_slot_width = 18
let default_max_slot = (1 lsl default_slot_width) - 1
let default_generation_width = 5
let default_shards = 8

let bits_for n =
  let rec go acc n = if n = 0 then acc else go (acc + 1) (n lsr 1) in
  max 1 (go 0 n)

let new_chunk () = Array.init chunk_size (fun _ -> Atomic.make { value = None; generation = 0 })

let round_up_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let create ?(max_index = default_max_slot) ?(generation_width = default_generation_width)
    ?(shards = default_shards) () =
  if max_index < 1 then invalid_arg "Index_table.create: max_index";
  if generation_width < 0 || generation_width > 20 then
    invalid_arg "Index_table.create: generation_width";
  if shards < 1 then invalid_arg "Index_table.create: shards";
  let nshards = round_up_pow2 shards in
  {
    spine = Atomic.make [| new_chunk () |];
    grow_mutex = Mutex.create ();
    shards =
      Array.init nshards (fun k ->
          (* Shard [k] owns the slots congruent to [k] modulo the shard
             count; slot 0 is never used, so shard 0 starts one stripe
             in. *)
          { lock = Mutex.create (); free = []; fresh = (if k = 0 then nshards else k) });
    slot_width = bits_for max_index;
    generation_mask = (1 lsl generation_width) - 1;
    max_slot = max_index;
    high = Atomic.make 0;
    allocations = Atomic.make 0;
    reuses = Atomic.make 0;
    frees = Atomic.make 0;
  }

let shard_count t = Array.length t.shards
let slot_width t = t.slot_width
let slot_of_handle t handle = handle land ((1 lsl t.slot_width) - 1)

(* Slots are striped: shard [k] owns the slots congruent to [k] modulo
   the shard count, so ownership is recoverable from the handle alone. *)
let shard_of_handle t handle =
  slot_of_handle t handle land (Array.length t.shards - 1)
let generation_of_handle t handle = (handle lsr t.slot_width) land t.generation_mask
let handle t ~slot ~generation = (generation lsl t.slot_width) lor slot

(* Make sure the chunk holding [slot] exists.  Called with the
   allocating shard's lock held; the grow mutex is strictly inner, and
   no path takes a shard lock while holding it. *)
let ensure_chunk t slot =
  let ci = slot lsr chunk_width in
  if ci >= Array.length (Atomic.get t.spine) then begin
    Mutex.lock t.grow_mutex;
    let spine = Atomic.get t.spine in
    let n = Array.length spine in
    if ci >= n then begin
      let n' = max (ci + 1) (2 * n) in
      let bigger = Array.init n' (fun i -> if i < n then spine.(i) else new_chunk ()) in
      Atomic.set t.spine bigger
    end;
    Mutex.unlock t.grow_mutex
  end

let cell t slot = (Atomic.get t.spine).(slot lsr chunk_width).(slot land chunk_mask)

(* Reserve a slot from one shard: its free list first, else a fresh
   slot from its stripe.  Returns the handle, or None if the shard is
   dry. *)
let try_allocate_in t shard value =
  Mutex.lock shard.lock;
  let stride = Array.length t.shards in
  let reserved =
    match shard.free with
    | slot :: rest ->
        shard.free <- rest;
        Some (slot, true)
    | [] ->
        if shard.fresh <= t.max_slot then begin
          let slot = shard.fresh in
          shard.fresh <- slot + stride;
          Some (slot, false)
        end
        else None
  in
  match reserved with
  | None ->
      Mutex.unlock shard.lock;
      None
  | Some (slot, reused) ->
      ensure_chunk t slot;
      (* A recycled slot keeps the generation its free bumped it to, so
         handles minted before the free no longer match. *)
      let generation = if reused then (Atomic.get (cell t slot)).generation else 0 in
      Atomic.set (cell t slot) { value = Some value; generation };
      (* Only a fresh slot can pass the high-water mark; other shards
         raise it concurrently, hence the CAS. *)
      if not reused then begin
        let rec raise_high () =
          let h = Atomic.get t.high in
          if slot > h && not (Atomic.compare_and_set t.high h slot) then raise_high ()
        in
        raise_high ()
      end;
      Mutex.unlock shard.lock;
      ignore (Atomic.fetch_and_add t.allocations 1);
      if reused then ignore (Atomic.fetch_and_add t.reuses 1);
      Some (handle t ~slot ~generation)

let allocate ?shard_hint t value =
  let nshards = Array.length t.shards in
  let home =
    (match shard_hint with Some h -> h | None -> (Domain.self () :> int)) land (nshards - 1)
  in
  (* Start at the caller's home shard — uncontended in the common case —
     and steal from neighbours rather than fail while any shard still
     has capacity. *)
  let rec probe k =
    if k = nshards then failwith "Index_table.allocate: indices exhausted"
    else
      match try_allocate_in t t.shards.((home + k) land (nshards - 1)) value with
      | Some handle -> handle
      | None -> probe (k + 1)
  in
  probe 0

let get t handle =
  let slot = slot_of_handle t handle in
  let generation = generation_of_handle t handle in
  if slot <= 0 || slot > t.max_slot then invalid_arg "Index_table.get: bad index";
  let spine = Atomic.get t.spine in
  let ci = slot lsr chunk_width in
  if ci >= Array.length spine then invalid_arg "Index_table.get: unallocated index";
  let c = Atomic.get spine.(ci).(slot land chunk_mask) in
  match c.value with
  | Some value when c.generation = generation -> value
  | Some _ -> raise (Stale handle)
  | None ->
      if c.generation = 0 then invalid_arg "Index_table.get: unallocated index"
      else raise (Stale handle)

let find t handle =
  match get t handle with
  | value -> Some value
  | exception (Stale _ | Invalid_argument _) -> None

let free t handle =
  let slot = slot_of_handle t handle in
  let generation = generation_of_handle t handle in
  if slot <= 0 || slot > t.max_slot then invalid_arg "Index_table.free: bad index";
  let shard = t.shards.(slot land (Array.length t.shards - 1)) in
  Mutex.lock shard.lock;
  let c = Atomic.get (cell t slot) in
  match c.value with
  | Some _ when c.generation = generation ->
      (* Bumping the generation at free time invalidates every
         outstanding handle to this incarnation; the slot re-enters
         circulation through the owning shard's free list. *)
      Atomic.set (cell t slot)
        { value = None; generation = (generation + 1) land t.generation_mask };
      shard.free <- slot :: shard.free;
      Mutex.unlock shard.lock;
      ignore (Atomic.fetch_and_add t.frees 1)
  | _ ->
      Mutex.unlock shard.lock;
      raise (Stale handle)

(* Racy-by-design census walk: each cell is read atomically, but the
   set of live entries can change mid-scan.  Callers (the lifecycle
   reaper) must treat every visited entry as a candidate to re-verify,
   not as a consistent snapshot.  The walk stops at the high-water
   slot, read before the spine: a slot's chunk is published before the
   mark passes it, so the spine read second covers every slot up to
   the mark. *)
let iter_live t f =
  let upper = Atomic.get t.high in
  let spine = Atomic.get t.spine in
  for slot = 1 to upper do
    let c = Atomic.get spine.(slot lsr chunk_width).(slot land chunk_mask) in
    match c.value with
    | Some value -> f ~handle:(handle t ~slot ~generation:c.generation) value
    | None -> ()
  done

let allocated t = Atomic.get t.allocations
let frees t = Atomic.get t.frees
let reuses t = Atomic.get t.reuses
let live t = allocated t - frees t
