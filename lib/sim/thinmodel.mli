(** The thin-lock protocol as step-machine model programs.

    These programs mirror [Tl_core.Thin] operation-for-operation and
    reuse the real [Tl_heap.Header] bit manipulations, so the model
    checks the very word-level protocol the library executes.  The fat
    monitor is modelled as a CAS-guarded owner/count pair (queuing
    becomes bounded spinning) — enough to verify the thin↔fat
    transition safety that §2.3.4 argues informally.

    Memory layout (see {!addr}): the lock word, per-thread
    critical-section flags, a completed-sections counter (doubling as
    a lost-update detector), the model fat monitor, and a give-up
    counter for threads that exhaust their bounded spin budget. *)

module Addr : sig
  val lockword : int
  val fat_owner : int
  val fat_count : int

  val cs_flag : tid:int -> int
  (** Per-thread in-critical-section flag; [tid] in 1..8. *)

  val done_flag : tid:int -> int
  (** Set once a thread completes all its iterations. *)

  val gave_up_flag : tid:int -> int
  (** Set when a thread exhausts its spin budget and abandons. *)

  val fat_retired : int
  (** The model monitor's sticky retired flag (deflation extension). *)

  val deflated_flag : int
  (** Set by a deflater that completed a deflation. *)

  val protocol_error : int
  (** Set if a handshake CAS that must succeed failed — checked by
      {!mutual_exclusion_invariant}. *)

  val mem_size : int
end

val deflater_token : int
(** The pseudo-owner a deflater CASes into [fat_owner] to atomically
    check-and-retire an idle monitor; a retired monitor keeps it
    forever (the freed slot's tombstone), so stale entrants can never
    reacquire it. *)

val worker :
  tid:int ->
  iterations:int ->
  ?nesting:int ->
  ?lenient:bool ->
  ?trace:bool ->
  spin_budget:int ->
  unit ->
  Machine.program
(** A thread that [iterations] times: acquires the lock ([nesting]
    times, default 1), runs the critical section (its flag up, then
    down), releases; finally sets its [done_flag].  When a spin budget
    runs out the thread bumps [gave_up] and stops — exploration stays
    finite.  [lenient] makes release tolerate a word it does not own
    (needed in buggy-variant worlds, where dispossession is the bug
    under test).

    [trace] (default [false]) emits a [Machine.Label] of the form
    ["ev <tid> <kind-name>"] immediately after each protocol
    operation's linearising memory access — the same event vocabulary
    as [Tl_core.Thin]'s instrumentation ([Tl_events.Event]), the
    single model object being id 1.  Collected by
    [Machine.run_random], the labels form a stream in exact
    linearisation order; stamped with per-object ordinals in that
    order, it is checkable by [Tl_events.Oracle]. *)

val deflater : ?trace:bool -> unit -> Machine.program
(** One shot of the real deflation handshake
    ([Tl_core.Thin.deflate_lockword]): claim the
    deflation-in-progress bit, CAS-retire the monitor if idle, rewrite
    the word to thin-unlocked (setting [Addr.deflated_flag]) or back
    off.  Exploring it against {!worker}s machine-checks
    deflate-vs-lock-vs-unlock safety. *)

(** Deliberately broken variants, used to demonstrate that the checker
    has teeth: each must yield a violation. *)

val buggy_no_handshake_deflater : ?trace:bool -> unit -> Machine.program
(** Deflates with a plain idleness load and a plain lock-word store —
    no deflation-in-progress bit, no atomic retire.  A worker entering
    between check and act keeps the monitor while the freshly
    thin-unlocked word admits a second thread. *)

val buggy_blind_release_worker :
  tid:int -> iterations:int -> spin_budget:int -> unit -> Machine.program
(** Releases by storing the unlocked pattern without checking
    ownership. *)

val buggy_owner_skip_unlock_worker :
  ?trace:bool -> tid:int -> iterations:int -> spin_budget:int -> unit -> Machine.program
(** Behaves correctly for [iterations] rounds, then performs one extra
    release that skips the ownership check entirely — blindly storing
    the unlocked pattern (and reporting a fast release).  Every
    schedule yields an event stream the protocol automaton rejects:
    the extra unlock hits either an unlocked object, another thread's
    thin lock, or a live monitor. *)

val buggy_nonowner_inflate_worker :
  tid:int -> iterations:int -> spin_budget:int -> unit -> Machine.program
(** On contention, inflates somebody else's thin lock in place —
    violating the owner-only-writes discipline — and then enters
    through the fat monitor. *)

val mutual_exclusion_invariant : threads:int -> int array -> string option
(** At most one [cs_flag] set; additionally no handshake protocol
    error and no retired monitor with a non-tombstone owner. *)

val completion_check : threads:int -> iterations:int -> int array -> string option
(** On completed paths: every thread either finished or gave up, and —
    when none gave up — the lock ends fully released (thin-unlocked or
    fat with no owner; a retired monitor holding the deflater's
    tombstone token is fine).  Catches lost unlocks. *)

(** {1 Operation counting (§3.3)} *)

val solo_counts : [ `Initial | `Nested | `Deep of int ] -> Machine.op_counts
(** Operation census of a single-threaded lock+unlock through the
    given path (no contention): the model's analogue of the paper's
    "only 17 instructions". *)

val fat_solo_counts : unit -> Machine.op_counts
(** Census of lock+unlock through an already-inflated monitor. *)

val acquire_solo_counts : unit -> Machine.op_counts
(** Just the uncontended acquire: 1 load + 1 CAS + setup ALU. *)

val release_solo_counts : unit -> Machine.op_counts
(** Just the count-0 release: 1 load + 1 plain store, {e zero} atomic
    operations — the discipline's payoff (§2.3.2). *)

val nested_acquire_solo_counts : unit -> Machine.op_counts
(** Re-lock by the owner: the CAS fails, the XOR test passes, the
    count is bumped with a plain store. *)

val nested_release_solo_counts : unit -> Machine.op_counts
