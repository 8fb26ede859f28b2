(** The event sink: per-thread single-writer rings, epoch-stamped at
    emit time, merged into one dense-seq stream at drain time.

    A sink is either {e enabled} — it owns one {!Ring} per thread id,
    created lazily on the thread's first event — or the shared
    {!disabled} constant, which records nothing.  Instrumented layers
    test {!enabled} once on their hot path (typically via a bool cached
    in their context record) and skip event construction entirely when
    tracing is off, so the disabled cost is one load and one untaken
    branch per operation.

    {b Ordering guarantees.}  There is no longer a global order ticket
    on the emit path.  Each mutator event is stamped with a plain load
    of the sink's {e epoch}; {!advance_epoch} bumps it at every
    quiescence point.  {!drain} merges the rings in (stamp, tid, ring
    position) order and reassigns dense [seq]s (0, 1, …, n−1), which
    gives:

    - {e per-tid program order is exact} — one thread's events keep
      their emit order;
    - {e cross-thread order is exact across epochs} — an event emitted
      before a quiescence point sorts before any event emitted after
      it; within one epoch, threads may interleave arbitrarily.  The
      skew is bounded by the emit window between epoch advances, which
      is exactly what the relaxed oracle tolerates;
    - {e ticket events are totally ordered against everything} —
      {!emit_system} and {!emit_ordered} take a fetch-and-add ticket
      stamp that sorts strictly after every event already emitted and
      strictly before every event emitted later (stamps are
      parity-split: plain emits stamp [2·epoch], tickets [2·epoch+1]).
      A deflation therefore sorts after the releases that enabled it,
      and single-domain replays still satisfy the strict oracle.

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
    overflow mark of the run. *)

val enabled : t -> bool

val emit : t -> tid:int -> kind:Event.kind -> arg:int -> unit
(** Record one event on [tid]'s ring (no-op when disabled).  Requires
    [1 <= tid < max_tids]; out-of-range tids are counted in
    {!tid_clamped} and dropped — never folded onto the system stream,
    where they would masquerade as deflater/reaper actions.  At most
    one thread may emit per tid at a time (guaranteed by Tid leasing). *)

val emit_ordered : t -> tid:int -> kind:Event.kind -> arg:int -> unit
(** Record one event on the calling thread's own stream with a fresh
    ticket stamp: it sorts strictly after every event any thread has
    already emitted.  For rare transitions that a critical section
    serialises against other threads' emissions (CJM monitor creation
    and evaporation) — a plain {!emit} would stamp them with the
    caller's current epoch and let them sort thousands of places away
    from the takeover or drain they are causally tied to.  Costs a
    fetch-and-add; never use it on the acquire/release fast path. *)

val emit_system : t -> kind:Event.kind -> arg:int -> unit
(** Record one event on the system stream (tid 0): deflations, reaper
    scans, quiescence announcements made outside any registered thread.
    Serialised by a mutex and stamped with a fresh ticket, so system
    events order exactly against all mutator events; safe from any
    thread, including concurrently with itself. *)

val advance_epoch : t -> unit
(** Bump the ordering epoch.  Called from quiescence points; bounds the
    cross-thread merge skew to one emit window. *)

val tid_clamped : t -> int
(** Events rejected because their tid was outside [1, max_tids). *)

val emitted : t -> int
(** Events accepted so far (= recorded + dropped to ring overflow);
    excludes events suppressed by sampling or {!tid_clamped}. *)

val active_tids : t -> int list
(** Thread ids that have emitted at least one event (ring created),
    ascending — one per replay domain plus the system stream in a
    multi-domain run.  Empty for {!disabled}. *)

type drained = { events : Event.t array; dropped : (int * int) list }
(** A merged stream: [events] carry dense drain-assigned [seq]s
    (0…n−1); [dropped] the non-zero per-tid overflow counts, sorted by
    tid. *)

val empty : drained

val drain : t -> drained
(** Merge every ring into one ordered stream (see the ordering
    guarantees above): a k-way heap merge over the non-empty rings,
    each already in stamp order, in O(n log rings).  Requires producers to have quiesced; may be
    called repeatedly (it reads, never consumes) and is deterministic:
    two drains of a quiesced sink yield identical streams. *)

val total_dropped : t -> int
(** Events lost to ring overflow, summed over every ring: the total of
    [(drain t).dropped] without building the stream. *)

val buffered_words : t -> int
(** Words of event storage allocated across all rings (two per slot):
    what tracing currently costs in memory.  Grows with the events
    recorded, not with the caps. *)

val count_kind : drained -> Event.kind -> int
(** Occurrences of one kind in a drained stream (scoring helper). *)
