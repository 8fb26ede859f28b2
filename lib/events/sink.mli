(** The event sink: per-thread single-writer rings, epoch-stamped at
    emit time, merged into one dense-seq stream at drain time, and one
    ordinal counter per object.

    A sink is either {e enabled} — it owns one {!Ring} per thread id,
    created lazily on the thread's first event — or the shared
    {!disabled} constant, which records nothing.  Instrumented layers
    test {!enabled} once on their hot path (typically via a bool cached
    in their context record) and skip event construction entirely when
    tracing is off, so the disabled cost is one load and one untaken
    branch per operation.  The disabled sink has no ordinal table and
    never touches one.

    {b Ordering guarantees.}

    - {e Per-object order is exact.}  Only the holder of an object's
      state changes it, and the holder stamps the change: every
      {!Event.holder_stamped} event takes the object's next ordinal
      (plain read, increment, write — no atomic), and its emitter must
      hold the right to change the object's state when it calls
      {!emit}: after the CAS or claim that gains the right, and before
      the store or monitor release that gives it up.  The handoff that
      passes the right on also publishes the counter to the next
      holder, so one object's holder-stamped ordinals are distinct and
      increase in the order its state changed.  Observations
      ([Contended_begin], [Contended_end], [Deflate_aborted]) carry the
      last ordinal they saw.  The counters live in a two-level table
      indexed by object id whose chunks are allocated on first use and
      never moved, so domains share it safely.
    - {e Per-tid program order is exact} — one thread's events keep
      their emit order in [seq].
    - {e Cross-thread [seq] order is exact across epochs} — each
      mutator event is stamped with a plain load of the sink's epoch,
      {!advance_epoch} bumps it at every quiescence point, and {!drain}
      merges the rings in (stamp, tid, ring position) order and
      reassigns dense [seq]s (0, 1, …, n−1).  Within one epoch, threads
      may interleave arbitrarily; the oracle never relies on [seq]
      across threads.
    - {e System events are totally ordered against everything} —
      {!emit_system} takes a fetch-and-add ticket stamp that sorts
      strictly after every event already emitted and strictly before
      every event emitted later (stamps are parity-split: plain emits
      stamp [2·epoch], tickets [2·epoch+1]).

    Drops (ring overflow) lose a suffix of one thread's events, never a
    middle slice, and are reported per thread id; drained [seq]s stay
    dense regardless (the merge numbers what survived).

    {!drain} must only run once producers have quiesced (joined
    threads, or a barrier such as a quiescence point); see {!Ring}. *)

type t

val disabled : t
(** The null sink: {!enabled} is [false], {!emit} is a no-op, {!drain}
    is empty.  Shared; never records. *)

val default_capacity : int
(** Per-ring default cap: 65536 events. *)

val max_objects : int
(** Object ids an event may name: [\[0, max_objects)] = [\[0, 2^28)]
    (the arg word packs the id beside its ordinal, see {!Ring}).
    Heap ids are dense from 1. *)

val max_tids : int
(** Thread-id space per sink (matches [Tl_runtime.Tid.bits]).  Valid
    mutator tids are [1, max_tids) — index 0 is the system stream,
    reserved for {!emit_system}. *)

type sampling =
  | Every_event  (** record everything (default) *)
  | One_in_n of int
      (** keep a stable hash-selected 1-in-N of {e objects} — whole
          per-object histories survive, so the per-object oracle stays
          sound on the sampled stream; non-object events
          (reaper scans, quiescence points) are always kept *)
  | Contended_only
      (** suppress the four uncontended thin-path kinds; inflations,
          deflations, contended episodes, wait/notify and system events
          are kept *)

val create :
  ?ring_capacity:int -> ?system_capacity:int -> ?sampling:sampling -> unit -> t
(** An enabled sink whose rings each hold at most [ring_capacity]
    events (default {!default_capacity}); events past the cap are
    dropped and counted.  The cap reserves nothing: a ring starts at
    [Ring.initial_slots] and grows with the events it is given (see
    {!Ring}), so a generous cap costs memory only when it is used.
    [system_capacity] (default [ring_capacity]) caps ring 0 alone, the
    system stream that absorbs every deflation, reaper scan and
    overflow mark of the run.  The ordinal table costs one 16k-entry
    top array up front and a 16k-counter chunk per range of 16k object
    ids the run touches. *)

val enabled : t -> bool

val emit : t -> tid:int -> kind:Event.kind -> arg:int -> unit
(** Record one event on [tid]'s ring (no-op when disabled), stamping
    the object's ordinal for a kind that carries an object (see the
    ordering guarantees: a holder-stamped kind must be emitted while
    the caller holds the object's state).  Requires
    [1 <= tid < max_tids], and [0 <= arg < max_objects] for a kind that
    carries an object; an event outside those ranges is counted in
    {!clamped} and dropped — never folded onto the system stream, where
    it would masquerade as a deflater/reaper action.  At most one thread
    may emit per tid at a time (guaranteed by Tid leasing). *)

val emit_system : t -> kind:Event.kind -> arg:int -> unit
(** Record one event on the system stream (tid 0): deflations and
    reaper scans, which run with no thread env in hand.
    Serialised by a mutex and stamped with a fresh ticket, so system
    events order exactly against all mutator events; safe from any
    thread, including concurrently with itself.  A deflation is
    holder-stamped like any lock-state transition: its emitter must
    hold the object (for the thin scheme, the deflation bit on a
    retired monitor). *)

val advance_epoch : t -> unit
(** Bump the ordering epoch.  Called from quiescence points; bounds the
    cross-thread merge skew to one emit window. *)

val clamped : t -> int
(** Events rejected because their tid was outside [\[1, max_tids)] or
    their object id outside [\[0, max_objects)]. *)

val emitted : t -> int
(** Events accepted so far (= recorded + dropped to ring overflow);
    excludes events suppressed by sampling or {!clamped}. *)

val active_tids : t -> int list
(** Thread ids that have emitted at least one event (ring created),
    ascending — one per replay domain plus the system stream in a
    multi-domain run.  Empty for {!disabled}. *)

type drained = private {
  events : int array;  (** [Event.kind_to_int kind lor (tid lsl Event.kind_bits)] *)
  args : int array;  (** unpacked: the object id for a kind that carries one *)
  ords : int array;  (** the object's ordinal; 0 for a kind that names none *)
  seqs : int array;
      (** [\[||\]] when every seq is its index, as in every drain; a
          parsed dump may carry gaps.  Read it through {!seq}. *)
  dropped : (int * int) list;  (** non-zero per-tid overflow counts, by tid *)
}
(** A merged stream as parallel int columns, one entry per event in
    stream order.  No column holds a pointer, so a consumer walks flat
    blocks (large ones allocated straight in the major heap) and
    dereferences no record.  Streams come from {!drain}, the codecs or
    {!of_events}, which keep the columns one length and every kind in
    range. *)

val empty : drained

val length : drained -> int
val seq : drained -> int -> int
val tid : drained -> int -> int
val kind : drained -> int -> Event.kind
val arg : drained -> int -> int
val ord : drained -> int -> int

val iter :
  (seq:int -> tid:int -> kind:Event.kind -> arg:int -> ord:int -> unit) -> drained -> unit
(** Every event in stream order, its fields passed as immediates. *)

val max_stream_tid : int
(** The widest tid [events] holds ([max_int asr Event.kind_bits]). *)

val of_columns :
  events:int array ->
  args:int array ->
  ords:int array ->
  seqs:int array ->
  dropped:(int * int) list ->
  drained
(** For the codecs: [seqs] holds one seq per event.
    @raise Invalid_argument if the lengths differ or a kind is out of
    range. *)

val of_events : ?dropped:(int * int) list -> Event.t array -> drained
(** From records, for tests and hand-made streams.
    @raise Invalid_argument on a tid wider than {!max_stream_tid}. *)

val event : drained -> int -> Event.t
(** Event [i] as a record, for printing and tests. *)

val drain : t -> drained
(** Merge every ring into one ordered stream (see the ordering
    guarantees above): a k-way heap merge over the non-empty rings,
    each already in stamp order, in O(n log rings).  Requires producers to have quiesced; may be
    called repeatedly (it reads, never consumes) and is deterministic:
    two drains of a quiesced sink yield identical streams.  The merge
    writes each event straight into the columns; what it allocates
    besides them is bounded by the number of rings and chunks, not the
    number of events. *)

val total_dropped : t -> int
(** Events lost to ring overflow, summed over every ring: the total of
    [(drain t).dropped] without building the stream. *)

val buffered_words : t -> int
(** Words of event storage allocated across all rings (two per slot):
    what tracing currently costs in memory.  Grows with the events
    recorded, not with the caps. *)

val count_kind : drained -> Event.kind -> int
(** Occurrences of one kind in a drained stream (scoring helper). *)
