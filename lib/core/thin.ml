open Tl_runtime
open Tl_heap
module Fatlock = Tl_monitor.Fatlock
module Montable = Tl_monitor.Montable
module Ev = Tl_events.Event

type config = {
  count_width : int;
  backoff_policy : Backoff.policy;
  unlock_with_cas : bool;
  extra_fence : bool;
  record_stats : bool;
  fat_backend : Fatlock.backend;
}

let default_config =
  {
    count_width = Header.count_width;
    backoff_policy = Backoff.Yield_sleep;
    unlock_with_cas = false;
    extra_fence = false;
    record_stats = true;
    fat_backend = Fatlock.Parker;
  }

(* The uncontended acquire and release below call into no other module
   except [Atomic]: the build that is measured compiles with [-opaque],
   so a cross-module call there is an out-of-line call that cannot be
   inlined.  The lock word is read as a field, the word layout comes from
   bindings derived once from [Header] (still its only definition), and
   statistics go straight into the caller's [Lock_stats] block at the
   slots that module exports.  Config flags the fast path tests are
   cached in the ctx, as [tracing] is. *)

let hdr_mask = Header.hdr_bits (-1)
let count_offset = Header.count_offset
let count_increment = Header.count_increment

(* [word lxor shifted_index] is below this bound iff the word is thin
   and held by [shifted_index]'s owner, at any count. *)
let held_by_me_limit = 1 lsl Header.tid_offset

let deepest_bucket = Lock_stats.depth_buckets - 1

type ctx = {
  runtime : Runtime.t;
  montable : Montable.t;
  stats : Lock_stats.t;
  stat_blocks : int array array; (* [Lock_stats.blocks stats] *)
  nested_limit : int;
  config : config;
  record_stats : bool;
  extra_fence : bool;
  unlock_with_cas : bool;
  fence_pad : int Atomic.t; (* target of the MP Sync variant's extra atomic op *)
  events : Tl_events.Sink.t;
  tracing : bool;
      (* [Sink.enabled events], cached in the ctx so the fast path pays
         one field load and an untaken branch when tracing is off —
         never a cross-module call *)
}

let name = "thin"

let create_with ?(config = default_config) ?(events = Tl_events.Sink.disabled) runtime =
  if config.count_width < 1 || config.count_width > Header.count_width then
    invalid_arg "Thin.create_with: count_width";
  let montable = Montable.create () in
  let stats = Lock_stats.create () in
  (* Monitor-lifecycle gauges ride along in every snapshot, so reports
     see the census without reaching into the table. *)
  Lock_stats.register_gauge stats "monitors.live" (fun () -> Montable.live montable);
  Lock_stats.register_gauge stats "monitors.allocated" (fun () -> Montable.allocated montable);
  Lock_stats.register_gauge stats "monitors.slot_reuses" (fun () -> Montable.reuses montable);
  Lock_stats.register_gauge stats "events.clamped" (fun () ->
      Tl_events.Sink.clamped events);
  {
    runtime;
    montable;
    stats;
    stat_blocks = Lock_stats.blocks stats;
    nested_limit = Header.nested_limit_for ~count_width:config.count_width;
    config;
    record_stats = config.record_stats;
    extra_fence = config.extra_fence;
    unlock_with_cas = config.unlock_with_cas;
    fence_pad = Atomic.make 0;
    events;
    tracing = Tl_events.Sink.enabled events;
  }

let create runtime = create_with runtime

let stats ctx = ctx.stats
let config_of ctx = ctx.config
let montable ctx = ctx.montable
let events ctx = ctx.events

(* Every call site is guarded by [if ctx.tracing] so a disabled sink
   costs nothing beyond the branch.  A lock-state event is emitted while
   this thread holds the object (see [Tl_events.Sink]): after the CAS
   or claim that takes it, before the store or monitor release that
   gives it up. *)
let[@inline] emit ctx ~tid kind ~arg = Tl_events.Sink.emit ctx.events ~tid ~kind ~arg

(* Deflater-side events carry no env; they go to the system stream
   (tid 0), whose ticket stamps sort them after the releases that made
   the deflation legal. *)
let emit_system ctx kind ~arg = Tl_events.Sink.emit_system ctx.events ~kind ~arg
let lock_word obj = Atomic.get obj.Obj_model.lockword

(* Stand-in for the PowerPC isync/sync pair of the MP Sync variant: a
   real atomic read-modify-write, the closest full-barrier operation
   OCaml exposes. *)
let[@inline] fence ctx = if ctx.extra_fence then ignore (Atomic.fetch_and_add ctx.fence_pad 1)

let[@inline] my_index (env : Runtime.env) = env.descriptor.Tid.index

(* The caller's statistics block, created on its first record.  The
   table has a slot for every index a [Tid] lease can hand out. *)
let[@inline] stats_block ctx env =
  let tid = my_index env in
  let b = Array.unsafe_get ctx.stat_blocks tid in
  if b != Lock_stats.no_block then b else Lock_stats.new_block ctx.stats tid

let[@inline] bump b slot = Array.unsafe_set b slot (Array.unsafe_get b slot + 1)

(* The owner transfers its thin lock into a fresh fat lock.  Only the
   owner may write the lock word, so [Atomic.set] suffices; the monitor
   table publishes the fat lock before the inflated word becomes
   visible (both are seq-cst atomics). *)
let inflate_owned ctx env obj ~locks ~cause =
  let fat =
    (* The monitor carries the object id as its tag so deflation events
       can name the object without holding it. *)
    Fatlock.create_locked ~backend:ctx.config.fat_backend ~tag:(Obj_model.id obj)
      ~events:ctx.events ~owner:(my_index env) ~count:locks ()
  in
  let lw = obj.Obj_model.lockword in
  let monitor_index = Montable.allocate ~shard_hint:(my_index env) ~lockword:lw ctx.montable fat in
  let hdr = Header.hdr_bits (Atomic.get lw) in
  (* Stamped while the thin word is still ours: once the inflated word
     is published, a deflater or entrant may act on the object. *)
  if ctx.tracing then begin
    let kind =
      match cause with
      | `Contention -> Ev.Inflate_contention
      | `Wait -> Ev.Inflate_wait
      | `Overflow -> Ev.Inflate_overflow
    in
    emit ctx ~tid:(my_index env) kind ~arg:obj.Obj_model.id
  end;
  Atomic.set lw (Header.inflated_word ~hdr ~monitor_index);
  if ctx.record_stats then Lock_stats.record_inflation ctx.stats ~tid:(my_index env) cause;
  fat

(* Contended thin lock: spin with backoff until either some other
   contender inflates the lock, or we seize the thin lock ourselves and
   force the thin→fat transition (§2.3.4). *)
let rec contended ctx env obj backoff =
  let lw = obj.Obj_model.lockword in
  let word = Atomic.get lw in
  if Header.is_inflated word then begin
    if ctx.record_stats then
      Lock_stats.record_contended_spin ctx.stats ~tid:(my_index env) ~spins:(Backoff.steps backoff);
    fat_acquire ctx env obj (Header.monitor_index word)
  end
  else
    let hdr = Header.hdr_bits word in
    if
      Header.is_unlocked word
      && Atomic.compare_and_set lw hdr (hdr lor env.Runtime.shifted_index)
    then begin
      (* We own the thin lock now; complete the transition. *)
      if ctx.record_stats then
        Lock_stats.record_contended_spin ctx.stats ~tid:(my_index env)
          ~spins:(Backoff.steps backoff);
      ignore (inflate_owned ctx env obj ~locks:1 ~cause:`Contention);
      if ctx.record_stats then
        Lock_stats.record_acquire_fat ctx.stats ~tid:(my_index env) obj ~queued:false ~depth:1;
      if ctx.tracing then emit ctx ~tid:(my_index env) Ev.Acquire_fat ~arg:obj.Obj_model.id
    end
    else begin
      Backoff.once backoff;
      contended ctx env obj backoff
    end

and acquire ctx env obj =
  fence ctx;
  let lw = obj.Obj_model.lockword in
  let word = Atomic.get lw in
  (* "old value": the lock word with the high 24 bits masked out *)
  let unlocked_pattern = word land hdr_mask in
  if Atomic.compare_and_set lw unlocked_pattern (unlocked_pattern lor env.Runtime.shifted_index)
  then begin
    (* Scenario 1: locking an unlocked object. *)
    if ctx.record_stats then begin
      let b = stats_block ctx env in
      bump b Lock_stats.c_acquires_unlocked;
      (* The flag test spares every later lock of the object the call. *)
      if (not obj.Obj_model.ever_synced) && Obj_model.mark_synced obj then
        bump b Lock_stats.c_objects_synchronized
    end;
    if ctx.tracing then emit ctx ~tid:(my_index env) Ev.Acquire_fast ~arg:obj.Obj_model.id
  end
  else
    let word = Atomic.get lw in
    let x = word lxor env.Runtime.shifted_index in
    if x < ctx.nested_limit then begin
      (* Scenarios 2-3: nested locking by the owner.  The single
         comparison above checked shape = thin, owner = me and
         count < limit all at once; bump the count with a plain
         store. *)
      Atomic.set lw (word + count_increment);
      if ctx.record_stats then begin
        let b = stats_block ctx env in
        bump b Lock_stats.c_acquires_nested;
        (* [x]'s bits above the count are 0, so its count field is the
           old count; the new depth is that plus 2.  An [int] test, not
           [min], which compares polymorphically. *)
        let depth = (x lsr count_offset) + 2 in
        bump b (Lock_stats.c_depths + if depth < deepest_bucket then depth else deepest_bucket)
      end;
      if ctx.tracing then emit ctx ~tid:(my_index env) Ev.Acquire_nested ~arg:obj.Obj_model.id
    end
    else if Header.is_inflated word then fat_acquire ctx env obj (Header.monitor_index word)
    else if Header.is_unlocked word then
      (* The owner released between our CAS and the re-read; retry. *)
      acquire ctx env obj
    else if Header.thin_owner word = my_index env then begin
      (* Ours, but the count is saturated: "excessive" nesting
         overflows into a fat lock (§2.3). *)
      let locks = Header.thin_count word + 2 in
      ignore (inflate_owned ctx env obj ~locks ~cause:`Overflow);
      if ctx.record_stats then
        Lock_stats.record_acquire_nested ctx.stats ~tid:(my_index env) ~depth:locks;
      (* Traced as a fat acquisition: the thread leaves holding the fat
         monitor, and the [Inflate_overflow] event names the cause. *)
      if ctx.tracing then emit ctx ~tid:(my_index env) Ev.Acquire_fat ~arg:obj.Obj_model.id
    end
    else begin
      (* Scenario 4/5: held by another thread. *)
      if ctx.tracing then emit ctx ~tid:(my_index env) Ev.Contended_begin ~arg:obj.Obj_model.id;
      contended ctx env obj
        (Backoff.create ~policy:ctx.config.backoff_policy ~parker:env.Runtime.parker ());
      if ctx.tracing then emit ctx ~tid:(my_index env) Ev.Contended_end ~arg:obj.Obj_model.id
    end

and fat_acquire ctx env obj monitor_ref =
  match Montable.find ctx.montable monitor_ref with
  | None ->
      (* The word we read was stale: the monitor behind it was deflated
         and its slot reclaimed (detected by the generation tag).  The
         deflater rewrote the lock word before freeing the slot, so a
         fresh read makes progress. *)
      if ctx.record_stats then Lock_stats.add_extra ctx.stats "stale_monitor_reads" 1;
      acquire ctx env obj
  | Some fat -> (
      (* Entry-side of the deflation handshake: a monitor retired by a
         concurrent deflater turns us away, and a fresh read of the lock
         word — which the deflater rewrites right after retiring — makes
         progress.  Retirement is sticky and re-inflation allocates a
         fresh monitor, so our reference can never resurrect. *)
      let retired_retry () =
        if ctx.record_stats then
          Lock_stats.add_extra ctx.stats "deflation.retired_monitor_retries" 1;
        (* The deflater is between retiring and rewriting the word; give
           it the processor rather than spinning through the latch.
           Through the parker, so a fiber yields its carrier domain's
           run queue instead of the bare OS thread. *)
        Parker.yield env.Runtime.parker;
        acquire ctx env obj
      in
      match Fatlock.try_acquire_live env fat with
      | `Acquired ->
          if ctx.record_stats then
            Lock_stats.record_acquire_fat ctx.stats ~tid:(my_index env) obj ~queued:false
              ~depth:(Fatlock.count fat);
          if ctx.tracing then
            emit ctx ~tid:(my_index env) Ev.Acquire_fat ~arg:obj.Obj_model.id
      | `Retired -> retired_retry ()
      | `Busy -> (
          match Fatlock.acquire_live env fat with
          | `Acquired entry ->
              (* Stats (including the spin-phase park-avoidance
                 counter) and the queued/unqueued acquisition event. *)
              let queued = Fatlock.entry_queued entry in
              if ctx.record_stats then begin
                Lock_stats.record_acquire_fat ctx.stats ~tid:(my_index env) obj ~queued
                  ~depth:(Fatlock.count fat);
                if entry = Fatlock.Entry_spun then
                  Lock_stats.add_extra ctx.stats "fatlock.spin_avoided_parks" 1
              end;
              if ctx.tracing then
                emit ctx ~tid:(my_index env)
                  (if queued then Ev.Acquire_fat_queued else Ev.Acquire_fat)
                  ~arg:obj.Obj_model.id
          | `Retired -> retired_retry ()))

let[@inline] owner_store ctx lw ~old_word ~new_word =
  if ctx.unlock_with_cas then begin
    (* UnlkC&S variant: a compare-and-swap the discipline makes
       unnecessary.  The default [Atomic.set] below is no plain store
       either: OCaml 5.1.1 compiles it to [caml_atomic_exchange]
       (ROADMAP item 12 proposes the paper's plain store). *)
    if not (Atomic.compare_and_set lw old_word new_word) then
      (* Only the owner writes a thin-held word, so this cannot fail. *)
      assert false
  end
  else Atomic.set lw new_word

let not_owner op env word =
  raise
    (Fatlock.Illegal_monitor_state
       (Printf.sprintf "%s: thread %d does not hold the lock (%s)" op (my_index env)
          (Header.describe word)))

let release ctx env obj =
  fence ctx;
  let lw = obj.Obj_model.lockword in
  let word = Atomic.get lw in
  let unlocked_pattern = word land hdr_mask in
  if word = unlocked_pattern lor env.Runtime.shifted_index then begin
    (* Most common: owned once by me — store the unlocked pattern. *)
    if ctx.tracing then emit ctx ~tid:(my_index env) Ev.Release_fast ~arg:obj.Obj_model.id;
    if ctx.record_stats then bump (stats_block ctx env) Lock_stats.c_releases_fast;
    owner_store ctx lw ~old_word:word ~new_word:unlocked_pattern
  end
  else if word lxor env.Runtime.shifted_index < held_by_me_limit then begin
    (* Thin, mine, count >= 1: decrement with an owner store. *)
    if ctx.tracing then emit ctx ~tid:(my_index env) Ev.Release_nested ~arg:obj.Obj_model.id;
    if ctx.record_stats then bump (stats_block ctx env) Lock_stats.c_releases_nested;
    owner_store ctx lw ~old_word:word ~new_word:(word - count_increment)
  end
  else if Header.is_inflated word then begin
    (* Stamped before the monitor changes hands.  A release by a
       non-owner raises below, after its event: the oracle flags it. *)
    if ctx.tracing then emit ctx ~tid:(my_index env) Ev.Release_fat ~arg:obj.Obj_model.id;
    Fatlock.release env (Montable.get ctx.montable (Header.monitor_index word));
    if ctx.record_stats then Lock_stats.record_release ctx.stats ~tid:(my_index env) `Fat
  end
  else not_owner "release" env word

let wait ?timeout ctx env obj =
  let lw = obj.Obj_model.lockword in
  let word = Atomic.get lw in
  let fat =
    if Header.is_inflated word then Montable.get ctx.montable (Header.monitor_index word)
    else if word lxor env.Runtime.shifted_index < held_by_me_limit then
      (* wait() on a thin lock: the owner inflates first (§2.3). *)
      inflate_owned ctx env obj ~locks:(Header.thin_count word + 1) ~cause:`Wait
    else not_owner "wait" env word
  in
  if ctx.record_stats then Lock_stats.record_wait ctx.stats ~tid:(my_index env);
  if ctx.tracing then emit ctx ~tid:(my_index env) Ev.Wait_op ~arg:obj.Obj_model.id;
  Fatlock.wait ?timeout env fat

let notify ctx env obj =
  let word = lock_word obj in
  if Header.is_inflated word then
    Fatlock.notify env (Montable.get ctx.montable (Header.monitor_index word))
  else if word lxor env.Runtime.shifted_index < held_by_me_limit then
    (* Thin lock held by me: no thread can possibly be waiting. *)
    ()
  else not_owner "notify" env word;
  if ctx.record_stats then Lock_stats.record_notify ctx.stats ~tid:(my_index env);
  if ctx.tracing then emit ctx ~tid:(my_index env) Ev.Notify_op ~arg:obj.Obj_model.id

let notify_all ctx env obj =
  let word = lock_word obj in
  if Header.is_inflated word then
    Fatlock.notify_all env (Montable.get ctx.montable (Header.monitor_index word))
  else if word lxor env.Runtime.shifted_index < held_by_me_limit then ()
  else not_owner "notifyAll" env word;
  if ctx.record_stats then Lock_stats.record_notify_all ctx.stats ~tid:(my_index env);
  if ctx.tracing then emit ctx ~tid:(my_index env) Ev.Notify_all_op ~arg:obj.Obj_model.id

let holds ctx env obj =
  let word = lock_word obj in
  if Header.is_inflated word then
    match Montable.find ctx.montable (Header.monitor_index word) with
    | Some fat -> Fatlock.holds env fat
    | None -> false (* stale word: whatever monitor it named is gone *)
  else Header.thin_owner word = my_index env

(* Deflation handshake (extension; see the interface for the safety
   contract).  The protocol, against the entry side in [fat_acquire] /
   [Fatlock.acquire_live]:

     1. CAS the deflation-in-progress bit onto the inflated word.  This
        arbitrates rival deflaters — only the winner may rewrite the
        word or free the slot — without perturbing entering threads,
        which ignore the bit.
     2. Under the monitor latch, atomically check idleness and set the
        sticky [retired] flag ([Fatlock.retire_if_idle]).  An entrant
        that wins the latch first makes the monitor non-idle and the
        handshake aborts; a retirement that wins first bounces every
        later entrant back to re-read the lock word.
     3. Retired: CAS the word to the thin-unlocked pattern, then free
        the slot.  Word-before-slot ordering means a thread still
        holding the old word either re-reads the new one or trips the
        generation check in [fat_acquire].
     4. Not idle: CAS the bit back off (an aborted handshake) so future
        deflaters may try again.

   Both step-3/4 CASes must succeed — holding the bit excludes every
   other writer of an inflated word — so failure is a protocol bug and
   asserts. *)

type deflate_outcome = [ `Deflated | `Busy | `Lost_race | `Not_inflated ]

let deflate_lockword ctx ~cause lw =
  let word = Atomic.get lw in
  if not (Header.is_inflated word) then `Not_inflated
  else if Header.is_deflating word then `Lost_race
  else if not (Atomic.compare_and_set lw word (Header.set_deflating word)) then `Lost_race
  else begin
    let finish new_word =
      if not (Atomic.compare_and_set lw (Header.set_deflating word) new_word) then assert false
    in
    (* Derive the handle from the word we tagged, never from a caller's
       cached copy: the bit pins this inflation in place. *)
    let handle = Header.monitor_index word in
    match Montable.find ctx.montable handle with
    | None ->
        (* Unreachable while the protocol holds — the slot can only be
           freed by a handshake winner, and we are it — but degrade
           gracefully rather than assert on behalf of other code. *)
        finish word;
        `Lost_race
    | Some fat ->
        (* Deflation runs with no env in hand (the reaper walks the
           monitor table); events go to the system stream, tid 0, with
           the monitor's tag recovering the object id.  Both are
           emitted while the deflation bit is ours: the deflation holds
           the object (its monitor retired, the word not yet rewritten),
           and the abort reads an ordinal of the live inflation. *)
        if Fatlock.retire_if_idle fat then begin
          if ctx.tracing then
            emit_system ctx
              (match cause with
              | `Quiescent -> Ev.Deflate_quiescent
              | `Concurrent -> Ev.Deflate_concurrent)
              ~arg:(Fatlock.tag fat);
          finish (Header.hdr_bits word);
          Montable.free ctx.montable handle;
          if ctx.record_stats then begin
            Lock_stats.record_deflation ctx.stats;
            match cause with
            | `Concurrent -> Lock_stats.add_extra ctx.stats "deflations.non_quiescent" 1
            | `Quiescent -> ()
          end;
          `Deflated
        end
        else begin
          if ctx.tracing then emit_system ctx Ev.Deflate_aborted ~arg:(Fatlock.tag fat);
          finish word;
          if ctx.record_stats then
            Lock_stats.add_extra ctx.stats "deflation.aborted_handshakes" 1;
          `Busy
        end
  end

let deflate_obj ctx ~cause obj = deflate_lockword ctx ~cause obj.Obj_model.lockword

let deflate_idle ctx obj =
  match deflate_obj ctx ~cause:`Quiescent obj with
  | `Deflated -> true
  | `Busy | `Lost_race | `Not_inflated -> false

let deflations ctx = Lock_stats.deflation_count ctx.stats
