(** Thin locks — the paper's algorithm (§2.3).

    The lock word layout and bit tricks live in [Tl_heap.Header]; this
    module implements the protocol on top of them:

    - {b acquire, unlocked object}: one compare-and-swap of
      [hdr-bits] → [hdr-bits | my-pre-shifted-index] (§2.3.1);
    - {b acquire, nested}: the one-comparison XOR test, then
      [word + 256] written with a plain store (§2.3.3);
    - {b release}: equality test against the count-0 pattern, then a
      plain store — never an atomic operation, by the discipline that
      only the owner writes a thin-held lock word (§2.3.2);
    - {b contention}: spin with backoff; on seizing the thin lock,
      inflate to a fat monitor, permanently (§2.3.4);
    - {b wait / count overflow}: the owner inflates directly,
      transferring its recursion count.

    The {!config} knobs correspond to the paper's Fig. 6 variants and
    §3.2's count-width conjecture; defaults reproduce the paper's
    final "ThinLock" configuration. *)

type config = {
  count_width : int;
      (** Bits of nest count, 1–8 (default 8).  The paper conjectures
          2–3 suffice (§3.2); narrower counts inflate sooner. *)
  backoff_policy : Tl_runtime.Backoff.policy;
  unlock_with_cas : bool;
      (** The [UnlkC&S] variant (Fig. 6): release with a
          compare-and-swap instead of a plain store. *)
  extra_fence : bool;
      (** The [MP Sync] variant (Fig. 6): an extra atomic round-trip
          per lock and unlock, standing in for PowerPC
          [isync]/[sync]. *)
  record_stats : bool;
      (** Maintain {!Lock_stats} counters (default true).  On the
          uncontended paths that is one in-place increment in the
          calling thread's own counter block, inlined in this module
          (an unlocked acquire also tests the object's [ever_synced]
          flag).  Off, the lock path alone is timed: the
          [thin-nostats] registry entry, the statistics-free rung of
          the benchmark's layer ladder, which is what keeps this
          field. *)
  fat_backend : Tl_monitor.Fatlock.backend;
      (** Contended-path engine for monitors born from inflation
          (default [Parker]; see [Fatlock.backend]).  [Hapax] admits
          contenders in FIFO arrival order through constant-time
          ticketing. *)
}

val default_config : config

include Scheme_sig.S

val create_with :
  ?config:config -> ?events:Tl_events.Sink.t -> Tl_runtime.Runtime.t -> ctx
(** [events] (default [Sink.disabled]) attaches a lock-event trace
    sink.  The enabled/disabled decision is cached in the ctx, so a
    disabled sink costs the fast path one field load and an untaken
    branch; an enabled one records every protocol step
    ([Tl_events.Event.kind]) as it happens. *)

val config_of : ctx -> config
val montable : ctx -> Tl_monitor.Montable.t
(** Exposed for tests and for the deflation extension. *)

val events : ctx -> Tl_events.Sink.t
(** The sink given to {!create_with} ([Sink.disabled] if none). *)

val lock_word : Tl_heap.Obj_model.t -> int
(** Current raw lock word (for examples and tests). *)

(** {1 Deflation (extension)}

    The paper makes inflation permanent ("prevents thrashing between
    the thin and fat states", §2.3); Onodera & Kawachiya's Tasuki
    locks showed how to undo it {e without} stopping the world, by
    handshaking through a flc bit in the header.  This extension
    implements that handshake (the bit is
    [Tl_heap.Header.deflating_bit]):

    + the deflater CASes the deflation-in-progress bit onto the
      inflated word, arbitrating rival deflaters;
    + under the monitor latch it atomically checks idleness and sets a
      sticky {e retired} flag ([Fatlock.retire_if_idle]);
    + if retired, it CASes the word to thin-unlocked and only then
      frees the slot (generation bumped); if the monitor was busy it
      CASes the bit back off — an {e aborted handshake}.

    Entering threads never block on the bit: one that reaches a
    retired monitor is turned away ([Fatlock.acquire_live] returning
    [`Retired]) and re-reads the lock word, which the deflater rewrote
    right after retiring.  Monitors are never resurrected —
    re-inflation allocates a fresh one — so a stale reference cannot
    acquire a recycled monitor.

    Deflations are counted in {!Lock_stats}
    ([Lock_stats.snapshot.deflations], plus the
    ["deflations.non_quiescent"] and ["deflation.aborted_handshakes"]
    extras and the [monitors.*] gauges).  The lifecycle reaper
    ([Tl_lifecycle.Reaper]) drives {!deflate_lockword} from the
    monitor census under a pluggable policy. *)

type deflate_outcome =
  [ `Deflated  (** idle monitor retired; word back to thin-unlocked *)
  | `Busy  (** monitor in use; handshake aborted, bit cleared *)
  | `Lost_race  (** another deflater holds the bit, or the word moved *)
  | `Not_inflated  (** nothing to do *) ]

val deflate_lockword :
  ctx -> cause:[ `Quiescent | `Concurrent ] -> int Atomic.t -> deflate_outcome
(** Run the deflation handshake on one atomic lock word (the form the
    reaper uses — it walks [Montable] entries, which carry the word as
    a back-reference, without needing the heap object).  [cause] only
    affects accounting: [`Concurrent] deflations are additionally
    counted under ["deflations.non_quiescent"]. *)

val deflate_obj : ctx -> cause:[ `Quiescent | `Concurrent ] -> Tl_heap.Obj_model.t -> deflate_outcome
(** {!deflate_lockword} on an object's lock word. *)

val deflate_idle : ctx -> Tl_heap.Obj_model.t -> bool
(** [deflate_idle ctx obj] is
    [deflate_obj ctx ~cause:`Quiescent obj = `Deflated]: the historical
    entry point for quiescence-point deflation, now running the same
    handshake (safe under traffic, merely more likely to report
    [false] there). *)

val deflations : ctx -> int
(** How many locks the handshake has deflated, as recorded in the
    statistics (0 when [record_stats] is off). *)
