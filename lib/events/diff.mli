(** Event-stream diff: the codec's first consumer beyond the lab.

    Two replays of the same trace under the same configuration should
    tell the same story; this module pinpoints where two drained (or
    decoded) streams stop agreeing.  Events are compared positionally
    on every field ([seq], [tid], [kind], [arg], [ord]) — for single-threaded
    replays the streams are fully deterministic, so any divergence is a
    real behavioural difference (a policy change, a code change, a
    race).  Alongside the first divergence, a per-kind census delta
    summarises {e how} the runs differ in aggregate, which usually
    names the culprit (e.g. extra [deflate-quiescent] events under an
    eager policy). *)

type divergence = {
  index : int;  (** position in the merged streams where they differ *)
  left : Event.t option;  (** [None] = the left stream ended here *)
  right : Event.t option;
}

type report = {
  left_events : int;
  right_events : int;
  divergence : divergence option;  (** [None]: the streams are identical *)
  kind_deltas : (Event.kind * int * int) list;
      (** (kind, left count, right count), only kinds whose counts
          differ, in {!Event.all_kinds} order *)
}

val compare : Sink.drained -> Sink.drained -> report

val identical : report -> bool

val exit_code : report -> int
(** Process exit status for [thinlocks trace-diff]: 0 when
    {!identical}, 1 on any divergence.  (Exit 2 is reserved by the CLI
    for codec parse errors.) *)

val pp : Format.formatter -> report -> unit
(** Human-readable report: the verdict, the first diverging event from
    each side, and the per-kind count deltas. *)
