(** Compact binary codec for drained event streams.

    Same data model as {!Codec}, roughly 4–6 bytes per event instead of
    ~24: a printable magic line, then LEB128 varints — delta-coded seqs,
    a one-byte kind, the tid, a zigzag-signed arg (negative args
    round-trip) and the per-object ordinal.  Canonical like the text codec:
    [to_bytes (of_bytes s) = s], bought by strict parsing (minimal
    varints, kind bytes in range, positive seq deltas, ascending drop
    tids, no trailing bytes).

    Layout (after the magic):
    {v
    uvarint event-count
    uvarint drop-entry-count
    drop entry*:  uvarint tid , uvarint count        (tids ascending)
    event*:       uvarint seq-delta                  (first = seq; >= 1 after)
                  u8      kind                       (Event.kind_to_int)
                  uvarint tid
                  svarint arg                        (zigzag)
                  uvarint ord                        (per-object ordinal)
    v}

    A version 1 blob (no ordinals) is recognised and refused with a
    [Parse_error] naming the version. *)

exception Parse_error of string
(** The shared {!Codec.Parse_error} — callers catch one exception for
    either format. *)

val magic : string
(** ["# thinlocks-events bin v2\n"] — the format tag {!of_bytes}
    accepts. *)

val to_bytes : Sink.drained -> string
(** @raise Invalid_argument if seqs are not strictly increasing or the
    drop list is malformed (neither can come from a real drain). *)

val of_bytes : string -> Sink.drained
(** Strict parse.  @raise Parse_error on any deviation. *)

val looks_binary : string -> bool
(** Does the blob start with a binary magic of any version? *)

val of_string_auto : string -> Sink.drained
(** Dispatch on the format tag: binary if {!looks_binary}, else the
    text {!Codec.of_string}.  @raise Parse_error as either parser. *)
