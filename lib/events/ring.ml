(* Growable event buffer with a hard cap, single-writer.

   Exactly one thread appends to a ring (the sink keys rings by thread
   id and serialises the system ring behind a mutex), so the fill index
   is a plain mutable int and an append is two stores into an unboxed
   int array plus the index bump — no atomic read-modify-write anywhere
   on the path.  Slot [i] of a chunk lives at [2i] (meta) and [2i+1]
   (arg), so an append touches one cache line.

   The events live in a list of chunks.  The first holds
   [initial_slots] events; each further chunk doubles the ring up to
   [chunk_slots] events at a time, and never past [capacity].  A ring
   therefore costs memory in proportion to the events it holds (at most
   twice that, or the initial size), not to the traffic its owner might
   have produced.  The ring never reallocates a chunk: one of at most
   [2 * chunk_slots] = 128 words is allocated on the minor heap and
   promoted (copied once) into the runtime's size-class pools, whose
   memory is recycled.  A single buffer doubled in place instead
   copies every event about once more and takes its large blocks fresh
   from malloc; on a 2-vCPU Xeon VM that cost a traced lock/unlock
   loop 45-75 ns per event, against 13-16 for a preallocated ring.

   The capacity stays a hard cap; appends past it are counted as drops
   instead of overwriting (a trace with a hole at the *end* and an
   honest drop count is more useful than one silently missing its
   middle).

   Each slot packs [stamp lsl Event.kind_bits lor kind] next to the
   arg word (for object events, the sink packs the object's ordinal
   above the id); the stamp is the sink's epoch (or a system-stream ticket), not
   a per-event sequence number — dense seqs are reconstructed at drain
   time.  There is no consumer-side synchronisation: [written]
   are only meaningful once the producer has quiesced (joined, or
   parked at a barrier), which the harness guarantees by draining after
   workloads complete. *)

type t = {
  capacity : int;
  mutable chunk : int array;
  mutable fill : int;
  mutable sealed : int array list;
  mutable sealed_slots : int;
  mutable dropped : int;
}

let initial_slots = 32
let chunk_slots = 64

let create capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity";
  {
    capacity;
    chunk = Array.make (2 * min capacity initial_slots) 0;
    fill = 0;
    sealed = [];
    sealed_slots = 0;
    dropped = 0;
  }

let written t = t.sealed_slots + (t.fill / 2)

(* The rare branch of an append: the current chunk is full.  Seal it
   and start a chunk as large as the ring so far (at most
   [chunk_slots], at most the room left under the cap), or count a
   drop once the cap is reached. *)
let[@inline never] emit_full t meta arg =
  let held = written t in
  let room = min chunk_slots (min held (t.capacity - held)) in
  if room = 0 then t.dropped <- t.dropped + 1
  else begin
    let chunk = Array.make (2 * room) 0 in
    Array.unsafe_set chunk 0 meta;
    Array.unsafe_set chunk 1 arg;
    t.sealed <- t.chunk :: t.sealed;
    t.sealed_slots <- held;
    t.chunk <- chunk;
    t.fill <- 2
  end

let emit t ~stamp ~kind ~arg =
  let meta = (stamp lsl Event.kind_bits) lor Event.kind_to_int kind in
  let chunk = t.chunk and j = t.fill in
  if j < Array.length chunk then begin
    Array.unsafe_set chunk j meta;
    Array.unsafe_set chunk (j + 1) arg;
    t.fill <- j + 2
  end
  else emit_full t meta arg

let dropped t = t.dropped
let capacity t = t.capacity
let slots t = t.sealed_slots + (Array.length t.chunk / 2)
