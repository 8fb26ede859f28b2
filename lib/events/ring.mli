(** One growable, capped event buffer (normally: one per thread id).

    {b Single writer.}  Exactly one thread may append to a given ring;
    the sink guarantees this by keying rings on thread id and putting a
    mutex in front of the shared system ring (tid 0).  Under that
    discipline an append is branch + two plain stores + index bump —
    no atomic read-modify-write.

    {b Pay as you go.}  A ring stores its events in chunks: the first
    holds {!initial_slots} events, and each chunk after it doubles the
    ring, up to 64 events (128 words) per chunk and never past
    [capacity].  After [n] appends a ring holds at most
    [max initial_slots (2n)] slots, never more than [capacity].  Chunks
    are small and never reallocated, so growth costs one minor-heap
    allocation per chunk.  The capacity is a hard cap: once it is
    reached, further events are {e dropped} (and counted), never
    overwritten — the surviving prefix stays intact and the loss is
    reported, rather than silently corrupting the middle of the stream.

    Each slot is two words: an ordering {e stamp} (the sink's epoch, or
    a system-stream ticket — not a dense sequence number) packed with
    the kind, and an arg word.  For a kind that carries an object
    ({!Event.carries_object}) the sink packs the arg word as
    [ord lsl 28 lor id]: the object id in the low 28 bits (so ids are
    below [Sink.max_objects]), the object's ordinal ({!Event.t.ord}) in
    the 34 bits above, taken modulo [2^34] so the word stays
    non-negative — the ordinal costs no third word.  Other kinds store
    their arg as is.  The ring itself stores words as given; dense
    [seq]s are reconstructed, and arg words unpacked, by [Sink.drain].

    Reading ([written], or [Sink.drain] walking the chunks)
    must not race with the producer: the index bump is a plain store,
    so a concurrent reader has no happens-before edge to the slot's
    contents.  The sink drains only
    after producers have quiesced (thread join or barrier). *)

type t = {
  capacity : int;
  mutable chunk : int array;
      (** the chunk being filled; slot [i]:
          [stamp lsl Event.kind_bits lor Event.kind_to_int] at [2i],
          the arg word at [2i+1] *)
  mutable fill : int;  (** words of [chunk] in use *)
  mutable sealed : int array list;  (** full chunks, newest first *)
  mutable sealed_slots : int;  (** events held in [sealed] *)
  mutable dropped : int;
}
(** Exposed so [Sink.emit] can inline the append on its hot path.
    Outside [lib/events], treat as read-only. *)

val initial_slots : int
(** Slots of a fresh ring (or its capacity, if smaller). *)

val create : int -> t
(** [create capacity].  @raise Invalid_argument if [capacity < 1]. *)

val emit : t -> stamp:int -> kind:Event.kind -> arg:int -> unit
(** Append one event (single writer only); [arg] is the arg word,
    stored as given. *)

val emit_full : t -> int -> int -> unit
(** [emit_full t meta arg]: the rare branch of an append, taken when
    [chunk] is full — start a chunk and store, or count a drop at the
    cap.  [Sink.emit] inlines the common branch and calls this one. *)

val written : t -> int
(** Events actually stored (≤ capacity). *)

val dropped : t -> int
(** Events lost to overflow. *)

val capacity : t -> int

val slots : t -> int
(** Event slots currently allocated (two words each). *)
