(** Text codec for drained event streams.

    Layout (one record per line, all lines newline-terminated):
    {v
    # thinlocks-events v2
    events <count>
    dropped <tid> <n>                (zero or more, tids strictly increasing)
    <seq> <tid> <kind> <arg> <ord>   (exactly <count> lines, in stream order)
    v}

    [<ord>] is the event's per-object ordinal ({!Event.t}).  A version 1
    dump (four fields, no ordinal) is refused with a [Parse_error] that
    names the version: without ordinals the oracle cannot order an
    object's events.

    The format is {e canonical}: [to_string] emits exactly one byte
    string per stream, and [of_string] accepts only that shape — exact
    tokens, no leading zeros, matching counts.  Hence
    [to_string (of_string s) = s] for every accepted [s], which is the
    property golden tests rely on. *)

exception Parse_error of string

val magic : string

val to_string : Sink.drained -> string

val of_string : string -> Sink.drained
(** @raise Parse_error on any deviation from the canonical form. *)
