(** Lock-lifecycle events.

    Each event is one protocol step observed by an instrumented layer:
    which acquire path an operation took, an inflation and its cause, a
    deflation (or an aborted handshake), the boundaries of a contended
    episode, wait/notify traffic, a reaper scan, a quiescence point.

    Kinds are constant constructors, so an instrumentation site
    allocates nothing when it names one.  [arg] is kind-dependent: the
    object id for lock-path, inflation and deflation events (the
    deflater learns it from the monitor's tag, see
    [Tl_monitor.Fatlock]); the number of monitors deflated for
    [Reaper_scan]; the announcement count for [Quiescence].

    {b Per-object order.}  Only the holder of an object's state may
    change it, so the holder also records the order of the changes:
    every {!holder_stamped} event carries the object's next ordinal,
    taken while its emitter holds the right to change the object's
    state.  The other object events observe the state and carry the
    last ordinal they saw.  Sorting one object's events by
    ([ord], holder before observer, [seq]) recovers the order in which
    its state actually changed, whatever the cross-thread [seq] order
    says (see [Sink] and [Oracle]). *)

type kind =
  | Acquire_fast  (** scenario 1: CAS on an unlocked word *)
  | Acquire_nested  (** scenarios 2–3: owner re-entry, plain store *)
  | Acquire_fat  (** entered a fat monitor without queuing *)
  | Acquire_fat_queued  (** entered a fat monitor after blocking *)
  | Release_fast
  | Release_nested
  | Release_fat
  | Inflate_contention
  | Inflate_wait
  | Inflate_overflow
  | Deflate_quiescent
  | Deflate_concurrent
  | Deflate_aborted  (** handshake reached the monitor but found it busy *)
  | Contended_begin  (** a thread starts spinning or queuing *)
  | Contended_end  (** …and finally holds the lock *)
  | Wait_op
  | Notify_op
  | Notify_all_op
  | Reaper_scan  (** one census scan completed; [arg] = deflated count *)
  | Quiescence  (** a quiescence point announced; [arg] = running count *)
  | Tid_overflow
      (** the thread-index lease pool was exhausted and a fiber took
          the overflow path (suspended until an index is released)
          instead of failing; system stream, [arg] = running count of
          overflow episodes *)
  | Cjm_monitor_create
      (** CJM scheme: a transient table monitor materialised for an
          object (first contention, or a wait on an inline-held lock);
          [arg] = object id.  Emitted by the mutator that creates the
          monitor — CJM has no system-stream deflater. *)
  | Cjm_monitor_evaporate
      (** CJM scheme: the table entry drained to zero owner/waiters and
          its monitor evaporated — no handshake, the unpinning mutator
          removes it directly; [arg] = object id *)
  | Policy_switch
      (** the deflation controller re-selected a shard's policy;
          system stream, [arg] packs shard/old/new/score (see
          [Tl_lifecycle.Controller.pack_switch]) *)

type t = { seq : int; tid : int; kind : kind; arg : int; ord : int }
(** [seq] is assigned by the sink's drain-time merge: dense, starting
    at 0, a total order compatible with every thread's program order
    (see [Sink]).  [ord] is the object's ordinal (see above): the one
    this event took for a holder-stamped kind, the last one seen for an
    observation, 0 for a kind that names no object. *)

val all_kinds : kind list

val n_kinds : int
(** Number of kinds; [kind_to_int] is dense in [0, n_kinds). *)

val kind_bits : int
(** Bits needed to store a kind int; the ring packs
    [stamp lsl kind_bits lor kind] into a single word. *)

external kind_to_int : kind -> int = "%identity"
(** Dense numbering in declaration order: a constant constructor's
    immediate representation. *)

val kind_of_int : int -> kind
(** The inverse of {!kind_to_int}; allocates nothing.
    @raise Invalid_argument outside [\[0, n_kinds)]. *)

val carries_object : kind -> bool
(** [arg] is an object id for this kind ([Reaper_scan], [Quiescence],
    [Tid_overflow] and [Policy_switch] are the only kinds whose arg is
    a count or packed record instead).  The oracle's
    per-object partitioning and the sink's 1-in-N object sampling both
    key off this predicate. *)

val object_kind_mask : int
(** Bit [kind_to_int k] set iff [carries_object k]. *)

val holder_stamped : kind -> bool
(** The kind is a lock-state transition (acquires, releases,
    inflations, wait, notify, deflations, CJM monitor creation and
    evaporation): its emitter holds the right to change the object's
    state and stamps the object's next ordinal.  [Contended_begin],
    [Contended_end] and [Deflate_aborted] are observations: they carry
    an object but stamp nothing. *)

val holder_kind_mask : int
(** Bit [kind_to_int k] set iff [holder_stamped k]. *)

val fast_path_kind_mask : int
(** Bit set for the four uncontended thin-path kinds
    (acquire/release, fast/nested) — the ones contended-only sampling
    suppresses. *)

val kind_name : kind -> string
(** Stable wire name (e.g. ["acquire-fast"]) used by the text codec. *)

val kind_of_name : string -> kind option

val pp : Format.formatter -> t -> unit
