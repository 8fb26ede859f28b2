(** The fiber storm: open-loop million-fiber lock workload.

    A generator fiber admits worker fibers through a bounded window
    ([in_flight]), optionally pacing admissions as a Poisson process
    ([arrival_rate]); each worker locks Zipf-popular objects, optionally
    yielding {e while holding} so contenders park on inflated monitors
    and resume across suspensions.  Every acquire is timed, so the
    result reports the latency tail (p50/p99/p999) alongside
    throughput.

    Total fibers is bounded only by memory: tid indices are leased and
    recycled, and if the window exceeds the 15-bit index space the
    spawner takes the oracle-visible overflow path
    ([Event.Tid_overflow] on the system stream) instead of failing.

    The lock is any registry entry: each episode is its acquire, the
    body, then its release, and traced runs verify with its own oracle
    call, which orders each object's events by the ordinals their
    holders stamped. *)

type config = {
  fibers : int;  (** total fibers over the whole run *)
  domains : int;  (** carrier domains *)
  objects : int;  (** shared lock objects *)
  zipf : float;  (** popularity skew exponent; 0 = uniform *)
  ops_per_fiber : int;  (** lock/unlock episodes per fiber *)
  critical_work : int;  (** spin units while holding *)
  think_work : int;  (** spin units between episodes *)
  yield_in_cs : bool;  (** suspend while holding (manufactures parking) *)
  arrival_rate : float;  (** admissions/sec, Poisson; 0 = window-limited *)
  in_flight : int;  (** admission window: max live worker fibers *)
  quiescence_every : int;  (** announce every N admissions; 0 = auto *)
  scheme : Tl_baselines.Registry.entry;  (** the lock under the storm *)
  reap : Policy_lab.reap option;
      (** deflation for a scheme that [Deflates] ([None]: monitors stay
          fat); scans ride the quiescence announcements *)
  seed : int;
}

val default_config : config
(** 100k fibers, 1 domain, 1024 objects at Zipf 0.99, one episode per
    fiber with yield-in-critical-section, window 4096, thin locks. *)

type result = {
  config : config;
  elapsed : float;  (** admission of first fiber to completion of last *)
  ops : int;
  ops_per_sec : float;
  p50_us : float;
      (** acquire latency percentiles, microseconds, sampled on the
          monotonic ns clock — sub-µs fast-path acquires resolve
          instead of flooring to 0, so p50 orders strictly below the
          parked tail. *)
  p99_us : float;
  p999_us : float;
  max_us : float;
  completed : int;
  overflow_waits : int;  (** tid-lease overflow episodes *)
  sched : Tl_fiber.Scheduler.counts;
      (** the scheduler's dispatches, yields and suspends over the
          storm: which layer the fibers' time went to *)
  distinct_tids : int;
      (** thread indices that ever recorded a lock statistic: the
          scheme's registered per-thread stats blocks, so it is counted
          with or without tracing *)
  events : int;
  dropped : int;
  buffered_words : int;
      (** words of event storage the sink allocated across its rings
          ([Sink.buffered_words]): proportional to [events], not to the
          tids leased; 0 untraced *)
  evaporates : bool;  (** the scheme's monitors [Evaporates] *)
  leaked_entries : int;
      (** [Evaporates] schemes: table entries still live after every
          fiber drained (must be 0 — the conservation invariant); 0 for
          every other lifecycle *)
  reaper_scans : int;
      (** census walks the quiescence-mounted reaper ran (0 without
          [reap]) *)
  deflations : int;
      (** monitors the scheme retired under the storm, from its
          statistics: reaper deflations, or CJM evaporations *)
  controller : Tl_lifecycle.Controller.shard_snapshot array option;
      (** per-shard controller state at storm end, [Reap_controlled]
          runs only — switch counts, estimated rates, dwell histograms *)
  policy_switches : int;
      (** controller policy switches over the whole storm (exploration
          legs included); 0 unless [Reap_controlled] *)
  oracle : Tl_events.Oracle.report option;
}

type latency_tail = { p50 : float; p99 : float; p999 : float; max : float }
(** Acquire-latency percentiles and maximum, microseconds. *)

val latency_tail : int array -> latency_tail
(** The storm's latency summary: sorts the nanosecond samples in place
    ({!Tl_util.Stats.sort_nonneg_ints}) and reads p50, p99, p999 and
    the maximum off the sorted array ({!Tl_util.Stats.percentile_sorted_ints}),
    converting to microseconds last.  All zero for no samples.
    @raise Invalid_argument on a negative sample. *)

val run : ?trace:bool -> ?oracle:bool -> config -> result
(** Run one storm on a fresh runtime and scheduler.  [trace] (default
    true) attaches an event sink whose rings grow with use; [oracle]
    (default true, requires [trace]) verifies the drained stream with
    the scheme's [verify].  Untraced runs are the configuration for pure
    throughput numbers.
    @raise Invalid_argument on a degenerate config, or a [reap] for a
    scheme that does not deflate. *)

val pp : Format.formatter -> result -> unit
