(* The sink: per-thread-id single-writer rings stamped with a shared
   epoch, merged into one dense-seq stream at drain time, plus one
   ordinal counter per object.

   The old design issued a global order ticket (fetch-and-add on one
   cache line) per event; every emitting domain serialised through it
   and the enabled fast path cost ~40 ns/event.  Now a mutator emit is:
   tid range check, kind/sampling filter, one plain [Atomic.get] of the
   epoch, the object's ordinal (a plain read, and for a lock-state
   transition a plain increment), and a single-writer ring append (two
   stores + index bump) — no atomic read-modify-write at all.  Rings
   grow with use (see [Ring]), so a sink costs memory in proportion to
   what it records, however many tids a run leases.

   Per-object order comes from the ordinals.  The paper's rule is that
   only the lock's owner writes the lock word; the sink follows it: a
   holder-stamped event ([Event.holder_stamped]) is emitted while its
   emitter holds the right to change the object's state, so the
   read-increment-write of the object's counter is never raced, and the
   lock handoff that passes the right on (an atomic on the lock word,
   a monitor latch, a table stripe) also publishes the counter to the
   next holder.  Observations read the counter without bumping it.  The
   counters live in a two-level table indexed by object id: a fixed top
   array of chunks allocated on first use under [ords_lock] and never
   reallocated, so a counter never moves while domains share it.

   Cross-thread seq order comes back at drain time.  Each ring is
   already in stamp order, so [drain] heap-merges the rings by (stamp,
   ring id), which orders events by (stamp, ring id, ring position),
   and reassigns dense seqs:

   - per-tid program order is always exact (same ring => same stamp
     order by position);
   - the epoch advances at every quiescence point, so cross-thread
     skew inside the merged order is bounded by one emit window;
   - system events (tid 0: deflater, reaper) take a *ticket* stamp.
     Stamps are split by parity so a ticket sorts strictly between its
     two epoch windows: a plain emit reading epoch [e] stamps [2e]; a
     ticket emit (fetch-and-add returning [e]) stamps [2e + 1] and
     bumps the epoch, so later plain emits stamp [2e + 2].  A ticket is
     therefore strictly greater than every stamp already placed and
     strictly smaller than every stamp placed after it, by any thread.
     Ticket emits are rare (deflations, reaper scans), so their
     fetch-and-add is off the hot path.

   Rings are keyed by thread id (Tid index); valid mutator tids are
   [1, max_tids) — Tid never issues index 0, which is reserved for the
   system stream.  Out-of-range tids (and object ids the arg word cannot
   pack) are counted ([clamped]) and dropped rather than folded onto
   tid 0: a misattributed event would masquerade as a deflater/reaper
   action to the oracle and diff.  Tid recycling is safe: an index is
   only reissued after its previous holder released it, so each ring
   has one writer at a time. *)

(* Matches Tl_runtime.Tid.bits without depending on the runtime. *)
let max_tids = 1 lsl 15

type sampling = Every_event | One_in_n of int | Contended_only

type t = {
  enabled : bool;
  ring_capacity : int;
  system_capacity : int; (* ring 0 may need more room than mutator rings *)
  epoch : int Atomic.t;
  rings : Ring.t array; (* index = tid; [||] when disabled *)
  kind_mask : int; (* bit per kind: record this kind at all? *)
  sample_n : int; (* 1-in-N object sampling; 0 = keep every object *)
  clamped : int Atomic.t;
  system_lock : Mutex.t;
  ords : int array array;
      (* per-object ordinal counters: chunk [id lsr ord_chunk_bits],
         slot [id land ord_chunk_mask]; [no_ords] until first use;
         [||] when disabled *)
  ords_lock : Mutex.t; (* serialises chunk allocation only *)
}

(* Sentinel for "no ring allocated yet": one shared never-written ring,
   compared by identity.  A flat [Ring.t array] keeps the emit load
   chain short: no [Some] block to unbox, no [Atomic.t] cell (whose
   abstract type would also make every read a generic, float-checking
   array load). *)
let no_ring = Ring.create 1

(* The arg word of an object event (see [Ring]): the ordinal in the 34
   bits above a 28-bit object id.  Literal constants, so the shifts
   compile to immediates. *)
let obj_bits = 28
let max_objects = 1 lsl obj_bits
let obj_mask = max_objects - 1
let ord_mask = (1 lsl 34) - 1
let ord_chunk_bits = 14
let ord_chunk_mask = (1 lsl ord_chunk_bits) - 1

(* Sentinel for "chunk not allocated yet", compared by identity (a
   real chunk is never empty). *)
let no_ords : int array = [||]

let disabled =
  {
    enabled = false;
    ring_capacity = 0;
    system_capacity = 0;
    epoch = Atomic.make 0;
    rings = [||];
    kind_mask = 0;
    sample_n = 0;
    clamped = Atomic.make 0;
    system_lock = Mutex.create ();
    ords = [||];
    ords_lock = Mutex.create ();
  }

let default_capacity = 1 lsl 16
let all_kinds_mask = (1 lsl Event.n_kinds) - 1

let create ?(ring_capacity = default_capacity) ?system_capacity
    ?(sampling = Every_event) () =
  if ring_capacity < 1 then invalid_arg "Sink.create: ring_capacity";
  let system_capacity = Option.value ~default:ring_capacity system_capacity in
  if system_capacity < 1 then invalid_arg "Sink.create: system_capacity";
  let kind_mask, sample_n =
    match sampling with
    | Every_event -> (all_kinds_mask, 0)
    | One_in_n n ->
        if n < 1 then invalid_arg "Sink.create: One_in_n";
        (all_kinds_mask, if n = 1 then 0 else n)
    | Contended_only -> (all_kinds_mask land lnot Event.fast_path_kind_mask, 0)
  in
  {
    enabled = true;
    ring_capacity;
    system_capacity;
    epoch = Atomic.make 0;
    rings = Array.make max_tids no_ring;
    kind_mask;
    sample_n;
    clamped = Atomic.make 0;
    system_lock = Mutex.create ();
    ords = Array.make (max_objects lsr ord_chunk_bits) no_ords;
    ords_lock = Mutex.create ();
  }

let enabled t = t.enabled
let clamped t = Atomic.get t.clamped
let advance_epoch t = if t.enabled then Atomic.incr t.epoch

(* A tid's first event creates its ring with a plain store: only the
   tid's single writer (or, for tid 0, the holder of [system_lock]) ever
   stores to its slot, the tid lease publishes the ring to the index's
   next holder, and readers run once producers have quiesced. *)
let[@inline never] ring_slow t tid =
  let ring = Ring.create (if tid = 0 then t.system_capacity else t.ring_capacity) in
  t.rings.(tid) <- ring;
  ring

let[@inline] ring_for t tid =
  (* Invariant: emit paths have already range-checked the tid; an
     out-of-range index here is a sink bug, not bad caller input. *)
  assert (tid >= 0 && tid < max_tids);
  let ring = Array.unsafe_get t.rings tid in
  if ring == no_ring then ring_slow t tid else ring

(* Stable pseudo-random object selection: a fixed multiplicative hash
   of the object id, so "1 in N" picks the same objects across runs and
   keeps *whole* per-object histories — the per-object oracle stays
   sound on a sampled stream. *)
let[@inline] sample_keep t arg =
  let h = arg * 0x9E3779B97F4A7C1 in
  (* fold the well-mixed high product bits down before the mod, or the
     low bits would reduce to [arg * K mod n] — a residue class, not a
     hash *)
  ((h lxor (h lsr 31)) land max_int) mod t.sample_n = 0

let[@inline] keep t k arg =
  (t.kind_mask lsr k) land 1 = 1
  && (t.sample_n = 0
     || (Event.object_kind_mask lsr k) land 1 = 0
     || sample_keep t arg)

let[@inline never] ord_chunk_slow t hi =
  Mutex.lock t.ords_lock;
  let chunk = t.ords.(hi) in
  let chunk =
    if chunk != no_ords then chunk
    else begin
      let chunk = Array.make (1 lsl ord_chunk_bits) 0 in
      t.ords.(hi) <- chunk;
      chunk
    end
  in
  Mutex.unlock t.ords_lock;
  chunk

(* The arg word of object event [k] on object [id] (range-checked by
   the caller): the id with the object's ordinal packed above it.  A
   holder-stamped kind bumps the counter — plain read, plain write: the
   caller holds the right to change the object's state, so no other
   thread writes this counter now — and carries the new value; an
   observation carries the value it read. *)
let[@inline] stamp t k id =
  let hi = id lsr ord_chunk_bits in
  let chunk = Array.unsafe_get t.ords hi in
  let chunk = if chunk == no_ords then ord_chunk_slow t hi else chunk in
  let lo = id land ord_chunk_mask in
  let ord = Array.unsafe_get chunk lo in
  let ord =
    if (Event.holder_kind_mask lsr k) land 1 = 1 then begin
      Array.unsafe_set chunk lo (ord + 1);
      ord + 1
    end
    else ord
  in
  ((ord land ord_mask) lsl obj_bits) lor id

(* Does [k] carry an object?  Its arg must then be a packable id;
   negative ids fail too, as [lsr] makes them huge. *)
let[@inline] carries_object k = (Event.object_kind_mask lsr k) land 1 = 1
let[@inline] unpackable arg = arg lsr obj_bits <> 0

let[@inline] emit t ~tid ~kind ~arg =
  if t.enabled then
    let k = Event.kind_to_int kind in
    let obj = carries_object k in
    if tid < 1 || tid >= max_tids || (obj && unpackable arg) then Atomic.incr t.clamped
    else if keep t k arg then begin
      let word = if obj then stamp t k arg else arg in
      (* tid is range-checked above; skip ring_for's assert *)
      let ring = Array.unsafe_get t.rings tid in
      let ring = if ring == no_ring then ring_slow t tid else ring in
      let meta = ((2 * Atomic.get t.epoch) lsl Event.kind_bits) lor k in
      let chunk = ring.Ring.chunk and j = ring.Ring.fill in
      if j < Array.length chunk then begin
        Array.unsafe_set chunk j meta;
        Array.unsafe_set chunk (j + 1) word;
        ring.Ring.fill <- j + 2
      end
      else Ring.emit_full ring meta word
    end

let emit_system t ~kind ~arg =
  if t.enabled then
    let k = Event.kind_to_int kind in
    if carries_object k && unpackable arg then Atomic.incr t.clamped
    else if keep t k arg then begin
      Mutex.lock t.system_lock;
      let ticket = (2 * Atomic.fetch_and_add t.epoch 1) + 1 in
      let word = if carries_object k then stamp t k arg else arg in
      Ring.emit (ring_for t 0) ~stamp:ticket ~kind ~arg:word;
      Mutex.unlock t.system_lock
    end

let sum_rings t f =
  Array.fold_left
    (fun n ring -> if ring != no_ring then n + f ring else n)
    0 t.rings

let emitted t = sum_rings t (fun ring -> Ring.written ring + Ring.dropped ring)
let buffered_words t = sum_rings t (fun ring -> 2 * Ring.slots ring)
let total_dropped t = sum_rings t Ring.dropped

let active_tids t =
  let acc = ref [] in
  for tid = Array.length t.rings - 1 downto 0 do
    if t.rings.(tid) != no_ring then acc := tid :: !acc
  done;
  !acc

type drained = {
  events : int array;
  args : int array;
  ords : int array;
  seqs : int array;
  dropped : (int * int) list;
}

let empty = { events = [||]; args = [||]; ords = [||]; seqs = [||]; dropped = [] }
let kind_mask_bits = (1 lsl Event.kind_bits) - 1
let length d = Array.length d.events

(* [seqs] is empty when every seq is its index *)
let seq d i =
  if Array.length d.seqs > 0 then d.seqs.(i)
  else if i >= 0 && i < length d then i
  else invalid_arg "index out of bounds"
let tid d i = d.events.(i) asr Event.kind_bits
let kind d i = Event.kind_of_int (d.events.(i) land kind_mask_bits)
let arg d i = d.args.(i)
let ord d i = d.ords.(i)

let iter f d =
  for i = 0 to length d - 1 do
    f ~seq:(seq d i) ~tid:(tid d i) ~kind:(kind d i) ~arg:d.args.(i) ~ord:d.ords.(i)
  done

let max_stream_tid = max_int asr Event.kind_bits

let of_columns ~events ~args ~ords ~seqs ~dropped =
  let n = Array.length events in
  if Array.length args <> n || Array.length ords <> n || Array.length seqs <> n then
    invalid_arg "Sink.of_columns: column lengths differ";
  Array.iter
    (fun e ->
      if e land kind_mask_bits >= Event.n_kinds then invalid_arg "Sink.of_columns: kind")
    events;
  let dense = ref true in
  Array.iteri (fun i s -> if s <> i then dense := false) seqs;
  { events; args; ords; seqs = (if !dense then [||] else seqs); dropped }

let of_events ?(dropped = []) (evs : Event.t array) =
  let col f = Array.map f evs in
  of_columns
    ~events:
      (col (fun (e : Event.t) ->
           if e.tid > max_stream_tid || e.tid < -max_stream_tid - 1 then
             invalid_arg "Sink.of_events: tid";
           Event.kind_to_int e.kind lor (e.tid lsl Event.kind_bits)))
    ~args:(col (fun (e : Event.t) -> e.arg))
    ~ords:(col (fun (e : Event.t) -> e.ord))
    ~seqs:(col (fun (e : Event.t) -> e.seq))
    ~dropped

let event d i = { Event.seq = seq d i; tid = tid d i; kind = kind d i; arg = arg d i; ord = ord d i }

(* A k-way merge of the non-empty rings through a binary heap keyed by
   (stamp of the ring's next event, ring index).  Each heap entry is one
   packed int, [stamp lsl ring_bits lor j], so entries compare as plain
   ints and the index breaks stamp ties.  Each ring is already in
   (stamp, position) order, so popping the least head yields exactly
   the (stamp, rid, pos) order — without a cell per event or a
   comparison sort:

   - a ring has one writer at a time, and that writer's epoch loads
     never go backwards; a ticket it takes is larger than any stamp it
     placed before and smaller than any it places after;
   - a recycled tid's next holder leases the index only after the
     previous holder released it, so it reads an epoch at least as new.

   The merge asserts the per-ring order as it advances each cursor, and
   writes each event straight into the columns (a drain's seqs are its
   indices, so it writes no [seqs]).  Int arrays take no write barrier,
   and columns over 256 words are allocated in the major heap, so
   nothing is promoted.  The helpers are top-level functions: a local
   closure over the loop's state would be allocated per event. *)
let ring_bits = 15
let ring_mask = (1 lsl ring_bits) - 1

let[@inline] entry j s =
  assert (s lsr (Sys.int_size - 1 - ring_bits) = 0);
  (s lsl ring_bits) lor j

let rec sift_down (heap : int array) n i x =
  let l = (2 * i) + 1 in
  if l >= n then heap.(i) <- x
  else
    let c = if l + 1 < n && heap.(l + 1) < heap.(l) then l + 1 else l in
    let y = heap.(c) in
    if y < x then begin
      heap.(i) <- y;
      sift_down heap n c x
    end
    else heap.(i) <- x

let drain t =
  if not t.enabled then empty
  else begin
    let live = ref [] and dropped = ref [] in
    (* walk tids high-to-low so the accumulated lists end up in tid
       order without a final reverse *)
    for rid = Array.length t.rings - 1 downto 0 do
      let ring = t.rings.(rid) in
      if ring != no_ring then begin
        if Ring.written ring > 0 then live := (rid, ring) :: !live;
        let d = Ring.dropped ring in
        if d > 0 then dropped := (rid, d) :: !dropped
      end
    done;
    let live = Array.of_list !live in
    let k = Array.length live in
    (* ring indices follow ring ids, so index order is rid order *)
    assert (k <= ring_mask + 1);
    (* every live ring's chunks, oldest first, in one table: ring [j]'s
       cursor is chunk [cur.(j)] of it, word [w.(j)], with [left.(j)]
       events still to merge; [tidw.(j)] is its tid, shifted into
       place *)
    let tidw = Array.map (fun (rid, _) -> rid lsl Event.kind_bits) live in
    let left = Array.map (fun (_, r) -> Ring.written r) live in
    let cur = Array.make k 0 and w = Array.make k 0 in
    let span (_, r) = 1 + List.length r.Ring.sealed in
    let chunks = Array.make (Array.fold_left (fun n l -> n + span l) 0 live) [||] in
    let next = ref 0 in
    Array.iteri
      (fun j ((_, r) as l) ->
        cur.(j) <- !next;
        next := !next + span l;
        (* [sealed] is newest first *)
        chunks.(!next - 1) <- r.Ring.chunk;
        List.iteri (fun c chunk -> chunks.(!next - 2 - c) <- chunk) r.Ring.sealed)
      live;
    let total = Array.fold_left ( + ) 0 left in
    let heap = Array.init k (fun j -> entry j (chunks.(cur.(j)).(0) lsr Event.kind_bits)) in
    for i = (k / 2) - 1 downto 0 do
      sift_down heap k i heap.(i)
    done;
    let size = ref k in
    let events = Array.make total 0 and args = Array.make total 0 in
    let ords = Array.make total 0 in
    for i = 0 to total - 1 do
      let top = heap.(0) in
      let j = top land ring_mask in
      let chunk = chunks.(cur.(j)) and p = w.(j) in
      let ki = chunk.(p) land kind_mask_bits and word = chunk.(p + 1) in
      events.(i) <- ki lor tidw.(j);
      if carries_object ki then begin
        args.(i) <- word land obj_mask;
        ords.(i) <- word lsr obj_bits
      end
      else args.(i) <- word;
      left.(j) <- left.(j) - 1;
      if p + 2 < Array.length chunk then w.(j) <- p + 2
      else begin
        cur.(j) <- cur.(j) + 1;
        w.(j) <- 0
      end;
      if left.(j) > 0 then begin
        let s = chunks.(cur.(j)).(w.(j)) lsr Event.kind_bits in
        assert (s >= top lsr ring_bits);
        sift_down heap !size 0 (entry j s)
      end
      else begin
        decr size;
        sift_down heap !size 0 heap.(!size)
      end
    done;
    { events; args; ords; seqs = [||]; dropped = !dropped }
  end

let count_kind d kind =
  let k = Event.kind_to_int kind in
  let n = ref 0 in
  Array.iter (fun e -> if e land kind_mask_bits = k then incr n) d.events;
  !n
