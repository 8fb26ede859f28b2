(** Wall-clock timing for the measurement harness.

    Multi-threaded benchmarks need elapsed (wall) time, not CPU time;
    the paper likewise reports elapsed time on an unloaded machine
    (§3). *)

val now : unit -> float
(** Seconds since an arbitrary epoch (wall clock). *)

val now_ns : unit -> int64
(** Nanoseconds on CLOCK_MONOTONIC.  For latency sampling: [now] has
    only µs granularity, so sub-µs waits quantize to 0 and percentile
    floors lie. *)

val elapsed_ns : since:int64 -> int64
(** Nanoseconds elapsed since a [now_ns] sample. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the elapsed seconds. *)

val median_of_runs : ?runs:int -> (unit -> unit) -> float
(** [median_of_runs ~runs f] times [f] [runs] times (default 5) and
    returns the median elapsed seconds — the paper's methodology
    (median of repeated samples). *)

val pp_seconds : Format.formatter -> float -> unit
(** Renders a duration with an adaptive unit (ns/us/ms/s). *)

val seconds_to_string : float -> string
