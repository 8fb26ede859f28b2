(** Adversarial event-stream generation for the protocol oracle.

    {!generate} drives a compact scheduler over model threads and
    objects through random protocol-legal schedules — fast and nested
    acquires, all three inflation causes, contended entry (spin and
    queue), wait/notify, deflation, aborted handshakes, reaper scans
    and quiescence announcements — and emits exactly the event
    subsequences the real instrumentation would, ending in a
    fully-unlocked state.  Events are stamped with per-object ordinals
    in generation order, as the sink's holders would stamp them.  Every
    generated stream is accepted by [Tl_events.Oracle].

    {!mutate} then applies one targeted fault — dropping, duplicating,
    reordering or retagging a single event — chosen so the expected
    violation class is known {e a priori}.  Together they form the
    property: the oracle accepts every well-formed stream and flags
    every mutated one with the right class. *)

type spec = {
  threads : int;  (** model threads, tids 1..threads *)
  objects : int;  (** lockable objects, ids 1..objects *)
  steps : int;  (** scheduling rounds before wind-down *)
  seed : int;
}

type gen = {
  events : Tl_events.Event.t array;
      (** seq-dense from 0, strict-linearisation order *)
  wait_exits : int list;
      (** indices of [Release_fat] events that are a waiter's first
          action after an (invisible) notify resume — the events whose
          removal loses a wakeup *)
  queued_aborts : int list;
      (** indices of [Deflate_aborted] events on an unowned,
          waiter-free monitor: the handshake failed only because an
          entrant was queued, which the stream does not witness *)
}

val stamp : Tl_events.Event.t array -> Tl_events.Event.t array
(** Renumber [seq] densely from 0 in array order and re-stamp every
    ordinal as if the array were the order in which the objects' states
    changed: each holder-stamped event takes its object's next ordinal,
    each observation the current one, other kinds 0. *)

val generate : spec -> gen
(** @raise Invalid_argument on a nonsensical spec. *)

val drained : gen -> Tl_events.Sink.drained
(** The stream as a drop-free drain, ready for [Oracle.check]. *)

val events_of : Tl_events.Sink.drained -> Tl_events.Event.t array
(** A drained stream's events as records, for assertions. *)

type mutation = {
  m_name : string;  (** which fault was injected, e.g. ["dup-deflate"] *)
  m_expected : Tl_events.Oracle.violation_class;
  m_stream : Tl_events.Sink.drained;
}

val mutate : seed:int -> gen -> mutation option
(** One random applicable fault from the catalogue; [None] when the
    stream offers no mutation site (e.g. a trivially empty stream).
    The mutated stream is guaranteed to contain a violation of
    [m_expected]'s class. *)
