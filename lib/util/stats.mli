(** Sample statistics for benchmark reporting.

    The paper reports the median of 10 runs (§3); {!median} and
    {!summary} support the same methodology. *)

type summary = {
  count : int;
  mean : float;
  median : float;
  stddev : float;
  min : float;
  max : float;
  p90 : float;
}

val mean : float array -> float
val median : float array -> float
val stddev : float array -> float
val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100], linear interpolation.
    All of the above raise [Invalid_argument] on an empty array. *)

val percentile_sorted : float array -> float -> float
(** [percentile xs p] for an [xs] already sorted ascending, read in
    place: no copy, no sort.
    @raise Invalid_argument on an empty array or [p] outside [0, 100]. *)

val percentile_sorted_ints : int array -> float -> float
(** {!percentile_sorted} over sorted integer samples, interpolated in
    floating point. *)

val sort_nonneg_ints : int array -> unit
(** Sort non-negative integers ascending, in place, by LSD radix: a few
    linear passes (one per 11 bits of the largest value) and one scratch
    array of the same length.
    @raise Invalid_argument on a negative value. *)

val summary : float array -> summary

(** Integer-valued histograms with unit buckets, used for nesting-depth
    and scenario censuses. *)
module Histogram : sig
  type t

  val create : ?initial_buckets:int -> unit -> t
  val add : t -> int -> unit
  (** [add t v] counts one observation of non-negative value [v]. *)

  val count : t -> int -> int
  (** Observations of exactly [v]. *)

  val total : t -> int
  val max_value : t -> int
  (** Largest value observed; [-1] if empty. *)

  val fraction : t -> int -> float
  (** [fraction t v] is [count t v / total t] ([0.] if empty). *)

  val fraction_at_least : t -> int -> float
  (** Fraction of observations with value [>= v]. *)

  val merge_into : src:t -> dst:t -> unit
  val reset : t -> unit
  val to_assoc : t -> (int * int) list
  (** Non-empty buckets in increasing value order. *)
end
