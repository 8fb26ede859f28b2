(** Fat locks: the heavyweight monitor subsystem.

    The paper assumes "a pre-existing heavy-weight system ... including
    queuing of unsatisfied lock requests, and the wait, notify, and
    notifyAll operations" (§2.1) and represents it as a multi-word
    structure with an owner, a lock count (not count-minus-one, Fig. 2)
    and the necessary queues.  This module is that subsystem, built
    from scratch on an internal spin latch and per-thread parkers.

    Semantics are Mesa-style, as in Java (the paper notes Java derives
    its monitor semantics from Mesa): a notified thread re-competes for
    the monitor, and callers of {!wait} must re-check their condition
    in a loop.

    The {e contended path} — what happens to an entrant that finds the
    monitor held — is pluggable (see {!backend}):

    - [Parker] (default): the classic entry queue.  For OS threads,
      Mesa barging: a released monitor may be grabbed by any arriving
      thread; a woken entrant that loses the race re-queues.  OS-thread
      entrants spin briefly before the first park.  A fiber entrant
      (cooperative parker) parks at once, and the release that pops it
      hands it the monitor directly (owner set under the latch before
      the unpark), so nothing barges past a fiber waiter and the entry
      queue sets the order of grants.
    - [Hapax]: value-based FIFO admission through a {!Hapax} engine —
      constant-time ticketed arrival, constant-time grant on unlock,
      strict arrival-order admission with no barging among waiters. *)

type t

exception Illegal_monitor_state of string
(** Raised on release/wait/notify by a non-owner. *)

type backend = Parker | Hapax

val backend_name : backend -> string
val all_backends : backend list

type entry = Entry_immediate | Entry_spun | Entry_parked
(** How an acquisition went: straight in, queued but resolved within
    the spin phase (a park/unpark round trip avoided), or parked. *)

val entry_queued : entry -> bool
(** Did the entrant contend ([Entry_spun] or [Entry_parked])?  Drives
    the queued-acquisition statistics and events. *)

val create : ?backend:backend -> unit -> t

val create_locked :
  ?backend:backend ->
  ?tag:int ->
  ?events:Tl_events.Sink.t ->
  owner:int ->
  count:int ->
  unit ->
  t
(** A monitor born already owned — used when inflating a held thin
    lock, which transfers the thin count (§2.3.4).  [count] is the
    number of locks (≥ 1).  [tag] (default 0) is a caller-chosen
    identity — the thin scheme stores the object id, so deflaters and
    traces can name the object without holding it.  [events] (default
    [Sink.disabled]) receives [Contended_begin]/[Contended_end] events,
    [arg] = the tag, when entrants queue: begin when the entrant joins
    the queue (or takes a ticket), end when it finally holds the
    monitor.  An entrant turned away by retirement leaves its episode
    open — it re-enters through a fresh monitor. *)

val tag : t -> int

val acquire : Tl_runtime.Runtime.env -> t -> unit
(** Lock the monitor, blocking if necessary.  Re-entrant: the owner's
    count is incremented.
    @raise Illegal_monitor_state if the monitor was retired — only
    possible for schemes that deflate; use {!acquire_live} there. *)

val try_acquire : Tl_runtime.Runtime.env -> t -> bool
(** Non-blocking acquire; never queues.  [false] on a busy {e or}
    retired monitor; use {!try_acquire_live} to tell them apart.
    Under an admission backend this also refuses while ticketed
    waiters are pending — barging over a granted ticket would steal
    its claim. *)

val acquire_live : Tl_runtime.Runtime.env -> t -> [ `Acquired of entry | `Retired ]
(** Like {!acquire}, but retirement-aware: [`Acquired how] on success;
    [`Retired] if a deflater retired the monitor before or while we
    waited — the caller must re-read the object's lock word and start
    over (the deflater rewrites it right after retiring).  Under the
    [Hapax] backend a ticketed waiter can never see [`Retired]: its
    unclaimed ticket pins the monitor. *)

val try_acquire_live : Tl_runtime.Runtime.env -> t -> [ `Acquired | `Busy | `Retired ]

val release : Tl_runtime.Runtime.env -> t -> unit
(** Unlock once; on the last release wakes one queued entrant (Parker;
    a fiber entrant wakes owning the monitor) or grants the oldest
    pending ticket (Hapax).
    @raise Illegal_monitor_state if the caller is not the owner. *)

val wait : ?timeout:float -> Tl_runtime.Runtime.env -> t -> unit
(** Release the monitor fully (saving the count), join the wait set,
    block until notified or [timeout] seconds elapse, then re-acquire
    and restore the count.
    @raise Illegal_monitor_state if the caller is not the owner. *)

val notify : Tl_runtime.Runtime.env -> t -> unit
(** Wake one waiter (if any).
    @raise Illegal_monitor_state if the caller is not the owner. *)

val notify_all : Tl_runtime.Runtime.env -> t -> unit

val owner : t -> int
(** Current owner's thread index, 0 if unowned.  Read under the
    monitor's latch; may be stale by return time but never torn. *)

val count : t -> int
(** Current lock count, read without the latch.  Only the owner writes
    the count while it holds the monitor (a release that hands the
    monitor over writes it under the latch, before the new owner's own
    latched claim), so the owner reads its own count exactly: the fat
    acquire paths book their depth statistic this way.  Any other
    thread reads a snapshot that may be stale. *)

val entry_queue_length : t -> int
(** Queued entrants: entry-queue length (Parker) or pending tickets
    (Hapax). *)

val wait_set_length : t -> int

val pipeline_quiet : t -> bool
(** Advisory: true when the admission pipeline is empty (trivially
    true under [Parker]).  Racy by
    design — the deflation controller reads it during the census walk
    to keep a shard away from eager policies while tickets are in
    flight; correctness never depends on it ({!retire_if_idle}
    re-checks under the latch). *)

val holds : Tl_runtime.Runtime.env -> t -> bool
(** Does the calling thread own the monitor? *)

val is_idle : t -> bool
(** Atomically (under the latch): not retired, unowned, empty entry
    queue, empty wait set, no notified waiter in flight back to
    re-acquisition — and, under an admission backend, an empty ticket
    pipeline.  The deflation precondition,
    checked as one consistent snapshot rather than seven racy reads. *)

(** {1 Lifecycle handshake (non-quiescent deflation)}

    A deflater that has claimed the object's lock word (the
    deflation-in-progress bit) calls {!retire_if_idle}; from the moment
    it returns [true] every entrant gets [`Retired] from
    {!acquire_live}/{!try_acquire_live} and falls back to the object's
    lock word.  Retirement is sticky: a retired monitor is never
    reused — re-inflation allocates a fresh one — which is what makes a
    stale reference held across the deflation harmless. *)

val retire_if_idle : t -> bool
(** Atomically retire the monitor if it {!is_idle}; [false] if it is
    owned, queued on, waited on, has a waiter in flight, a pending
    ticket, or is already retired. *)

val is_retired : t -> bool

val observe_idle : t -> int
(** One reaper scan tick: if the monitor {!is_idle}, bump and return
    its consecutive-idle-scan count; otherwise reset the count to 0 and
    return 0.  Feeds the deflation policy engine. *)

val contended_episodes : t -> int
(** How many entrants ever had to queue on this monitor — the signal
    behind contention-averse deflation policies. *)

val idle_scans : t -> int
(** Current consecutive-idle-scan count (see {!observe_idle}). *)
