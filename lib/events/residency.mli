(** Online monitor-residency accounting over a lock-event stream.

    One [feed] per event, constant work per event and constant memory
    per {e live} monitor, so it can run against a stream as it is
    decoded, or against rings drained mid-run.  It is the one place the
    repository computes the fat-residency integral (live monitors over
    seq ticks) and the inflation, deflation, re-inflation, aborted and
    contended counts: [Policy_lab]'s score is a projection of
    {!of_drained} plus the lab's own acquire counts.

    It also tracks the live-monitor peak, per-object contended
    episodes, and a log2 histogram of fat dwell times (seq ticks
    between an object's inflation and its deflation). *)

type summary = {
  events : int;
  span : int;  (** last seq - first seq *)
  fat_area : float;  (** integral of live monitors over seq time *)
  fat_residency : float;  (** [fat_area / span]; 0 when span = 0 *)
  inflations : int;
  deflations : int;
  reinflations : int;  (** inflations of an object deflated before *)
  aborted : int;  (** aborted deflation handshakes *)
  live_now : int;  (** monitors live when the stream ended *)
  live_peak : int;
  contended_objects : int;  (** distinct objects with >= 1 episode *)
  contended_episodes : int;  (** total contended-begin count *)
  hottest : (int * int) option;  (** (object id, episodes), max episodes *)
  dwell : int array;
      (** [dwell.(b)] = deflations whose inflation-to-deflation seq
          distance [d] satisfies [2^b <= d < 2^(b+1)] ([b = 0] also
          catches [d <= 1]); length {!dwell_buckets} *)
  open_monitors : (int * int) list;
      (** (object id, inflation seq) for monitors still live at the
          end, ascending by object id *)
}

val dwell_buckets : int

type t

val create : unit -> t
val feed : t -> seq:int -> kind:Event.kind -> arg:int -> unit
val summary : t -> summary

val of_drained : Sink.drained -> summary
(** [feed] every event of a drained stream, then {!summary}. *)

val pp : Format.formatter -> summary -> unit
