(** Streaming lock-protocol oracle.

    Replays each object's events through a reference automaton of the
    thin-lock protocol —

    {v flat -> thin(owner,count) -> inflating -> fat -> flat v}

    — and reports every event the automaton cannot explain.  The
    automaton encodes the paper's invariants (only the owner writes the
    lock word; inflation is one-way within an episode; deflation
    requires the DIP handshake and an idle monitor) plus the stream's
    own structural contract (dense, strictly increasing [seq] when
    nothing was dropped).  It is deliberately independent of
    [lib/core]: it re-derives legality from the event stream alone, so
    a bug shared by the implementation and its instrumentation still
    has to fool a second, much simpler state machine.

    {b Order.}  The order of one object's events is recorded, not
    guessed: whoever holds the right to change the object's state stamps
    its events with the object's next ordinal ({!Event.t.ord}, see
    [Sink]).  The oracle buckets the events by object, then takes one
    object at a time, sorts its events by (ordinal, holder-stamped
    before observed, [seq]) in place and runs the automaton once over
    them.  [seq] order across threads is never
    consulted, so one engine gives one verdict for every stream —
    single-domain or multi-domain, fibers or OS threads.  The stamps are
    checked first: two holder-stamped events of one object with the same
    ordinal, or a thread whose ordinals on an object go backwards against
    its [seq] order, make the stream {!Stream_malformed}.

    {b Layout.}  Two in-order passes over the columns ({!Sink.drained})
    bucket the routable events by object as int {e slots},
    [index lsl 20 lor kind lsl 15 lor tid].  An object is checked over
    its slots and their {e keys} ([2 * ord], plus 1 for an observation)
    with one mutable automaton state, so a clean step allocates
    nothing; the columns are read again only to report a violation. *)

type violation_class =
  | Unlock_without_lock  (** release of an object nobody holds *)
  | Ownership_violation  (** a thread acted on another thread's lock *)
  | Count_error
      (** recursion-count over/underflow without the overflow inflation
          the protocol demands *)
  | Reinflation_of_retired
      (** inflation of an object whose monitor is already live *)
  | Lost_wakeup  (** a notified waiter never exited its wait *)
  | Deflation_without_handshake
      (** a monitor deflated while owned, waited-on, or absent — the
          DIP handshake cannot have run *)
  | Stale_handle  (** a fat-path operation on an object with no live
                      monitor (generation-escaped handle) *)
  | Stream_malformed
      (** the stream itself is broken: seq gap or duplicate, a holder
          ordinal taken twice or a thread's ordinals going backwards,
          unmatched contended-end, thread-path event on the system
          stream, a tid no sink issues (outside [\[0, Sink.max_tids)]),
          or an object left held at end of stream *)

type violation = {
  cls : violation_class;
  seq : int;  (** offending event's seq; [-1] for end-of-stream findings *)
  tid : int;
  obj_id : int;  (** [-1] when not tied to one object *)
  detail : string;
}

type mode = Strict | Relaxed
(** Accepted by {!check} and ignored: one engine decides every stream.
    Kept only so that callers which still pass it build. *)

type protocol = Thin_lock | Cjm | Monitor
(** The locking protocol the stream claims to follow.  [Thin_lock]
    (default) is the paper's automaton: [Inflate_*] transitions and
    Tasuki [Deflate_*] handshake steps.  [Cjm] is the
    Compact-Java-Monitors variant: a monitor materialises with
    [Cjm_monitor_create] on a thin-held object (the contender — or the
    waiting owner — carries the inline depth into the monitor) and
    vanishes with [Cjm_monitor_evaporate], legal only while the monitor
    is unowned with no parked waiters; there is no handshake.
    [Monitor] is the owner, count and wait automaton alone, for schemes
    whose every object is a monitor from the start (jdk111, ibm112,
    fat, mcs, nosync): an object starts as an unowned monitor and only
    [Acquire_fat*], [Release_fat], [Wait_op] and [Notify*_op] move it.
    Each protocol treats the lifecycle kinds of the others (inflation,
    deflation, CJM creation and evaporation) as [Stream_malformed]. *)

type report = {
  events : int;
  objects : int;  (** distinct object ids routed through the automaton *)
  violations : violation list;  (** sorted by seq, end-of-stream last *)
}

val check :
  ?mode:mode ->
  ?protocol:protocol ->
  ?count_width:int ->
  ?require_unlocked_end:bool ->
  Sink.drained ->
  report
(** Verify one drained stream.  [protocol] (default [Thin_lock])
    selects the reference automaton variant — pass [Cjm] for streams
    produced by the [cjm] scheme, [Monitor] for the baselines'.  [count_width] (the replay's nest-count
    field width, 1–8) arms the thin-depth ceiling check: depth may not
    exceed [2^count_width] without an overflow inflation; omitted, the
    ceiling check is off.  [require_unlocked_end] (default [true])
    flags objects still held when the stream ends — replays release
    everything they acquire, so a held object at end of stream means a
    truncated or tampered stream.  At most one violation is reported
    per object (the automaton stops there); structural findings are
    reported once per stream. *)

val ok : report -> bool
val exit_code : report -> int  (** 0 clean, 1 violations *)

val class_name : violation_class -> string
(** Stable kebab-case name, e.g. ["deflation-without-handshake"]. *)

val find : report -> violation_class -> violation option
(** First reported violation of one class, if any. *)

val pp : Format.formatter -> report -> unit
