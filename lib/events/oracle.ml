module IntMap = Map.Make (Int)

type violation_class =
  | Unlock_without_lock
  | Ownership_violation
  | Count_error
  | Reinflation_of_retired
  | Lost_wakeup
  | Deflation_without_handshake
  | Stale_handle
  | Stream_malformed

let class_name = function
  | Unlock_without_lock -> "unlock-without-lock"
  | Ownership_violation -> "ownership-violation"
  | Count_error -> "count-error"
  | Reinflation_of_retired -> "reinflation-of-retired"
  | Lost_wakeup -> "lost-wakeup"
  | Deflation_without_handshake -> "deflation-without-handshake"
  | Stale_handle -> "stale-handle"
  | Stream_malformed -> "stream-malformed"

type violation = {
  cls : violation_class;
  seq : int;
  tid : int;
  obj_id : int;
  detail : string;
}

type mode = Strict | Relaxed

(* Which locking protocol the stream claims to follow.  [Thin_lock] is
   the paper's automaton (inflation events, Tasuki deflation
   handshake); [Cjm] is the Compact-Java-Monitors variant: monitors
   materialise with [Cjm_monitor_create] (no Inflate_* step) and vanish
   with [Cjm_monitor_evaporate] — legal only on an unowned, waiter-free
   monitor, with no handshake events at all.  Each mode treats the
   other protocol's lifecycle kinds as malformed. *)
type protocol = Thin_lock | Cjm

type report = {
  mode : mode;
  events : int;
  objects : int;
  violations : violation list;
}

(* ------------------------------------------------------------------ *)
(* The per-object reference automaton.                                *)
(* ------------------------------------------------------------------ *)

(* [depth] counts how many times the owner holds the lock (the paper's
   count field stores [depth - 1]).  [Inflating] covers the window
   between an [Inflate_contention]/[Inflate_overflow] event and the
   same thread's confirming [Acquire_fat] — the inflater has published
   the fat word but not yet reported entering the monitor.
   [Inflate_wait] needs no confirmation: the waiter's next event is its
   [Wait_op]. *)
type lstate =
  | Flat
  | Thin of int * int  (* owner, depth *)
  | Inflating of int * int  (* owner, depth carried into the monitor *)
  | Fat of int * int  (* owner (0 = unowned), depth *)

type ostate = {
  st : lstate;
  waiters : int IntMap.t;  (* tid -> depth saved at Wait_op *)
  signals : int;  (* undelivered notify credits *)
  cb : int IntMap.t;  (* tid -> open contended-begin depth *)
  pending_entry : int option;
      (* CJM: the contender that materialised the live monitor but has
         not yet reported entering it.  The creator holds a pin from
         inflation until after its queued acquire, so the monitor
         cannot evaporate while this is set — a protocol invariant the
         relaxed lineariser leans on to pair epoch-skewed creations
         and evaporations with the right generation. *)
}

let initial =
  {
    st = Flat;
    waiters = IntMap.empty;
    signals = 0;
    cb = IntMap.empty;
    pending_entry = None;
  }

let describe = function
  | Flat -> "flat"
  | Thin (o, d) -> Printf.sprintf "thin(owner=%d, depth=%d)" o d
  | Inflating (o, _) -> Printf.sprintf "inflating(by=%d)" o
  | Fat (0, _) -> "fat(unowned)"
  | Fat (o, d) -> Printf.sprintf "fat(owner=%d, depth=%d)" o d

(* A waiter's internal resumption (reacquire after notify / timeout)
   emits no event, so the automaton resumes a parked thread implicitly
   the first time it acts as owner while the monitor is unowned,
   consuming a notify credit when one is outstanding (a resume without
   a credit is a timed-wait expiry). *)
let resume st t =
  match st.st with
  | Fat (0, _) -> (
      match IntMap.find_opt t st.waiters with
      | Some saved ->
          Some
            {
              st with
              st = Fat (t, saved);
              waiters = IntMap.remove t st.waiters;
              signals = (if st.signals > 0 then st.signals - 1 else 0);
            }
      | None -> None)
  | _ -> None

let err cls detail = Error (cls, detail)

let rec step ~max_thin ~cjm st (e : Event.t) =
  let t = e.tid in
  match e.kind with
  | Event.Acquire_fast -> (
      match st.st with
      | Flat -> Ok { st with st = Thin (t, 1) }
      | Thin (o, _) when o = t ->
          err Count_error "fast acquire while already holding (expected nested)"
      | (Thin _ | Inflating _ | Fat _) as s ->
          err Ownership_violation
            (Printf.sprintf "fast acquire of a %s object" (describe s)))
  | Event.Acquire_nested -> (
      match st.st with
      | Thin (o, d) when o = t ->
          if d >= max_thin then
            err Count_error
              (Printf.sprintf
                 "nested acquire past depth %d without overflow inflation"
                 max_thin)
          else Ok { st with st = Thin (t, d + 1) }
      | Flat -> err Count_error "nested acquire with no thin lock held"
      | Thin _ -> err Ownership_violation "nested acquire of another thread's thin lock"
      | Inflating _ | Fat _ ->
          err Ownership_violation "thin nested acquire on an inflated object")
  | Event.Acquire_fat | Event.Acquire_fat_queued -> (
      (* The creating contender's first fat acquire discharges its
         pending-entry obligation (see [pending_entry]). *)
      let st =
        if st.pending_entry = Some t then { st with pending_entry = None }
        else st
      in
      match st.st with
      | Inflating (o, d) when o = t && e.kind = Event.Acquire_fat ->
          Ok { st with st = Fat (t, d) }  (* confirming entry, depth carried *)
      | Inflating _ ->
          err Ownership_violation "fat acquire on an object mid-inflation"
      | Fat (0, _) -> (
          match resume st t with
          | Some st' -> (
              match st'.st with
              | Fat (_, d) -> Ok { st' with st = Fat (t, d + 1) }
              | _ -> assert false)
          | None -> Ok { st with st = Fat (t, 1) })
      | Fat (o, d) when o = t ->
          if e.kind = Event.Acquire_fat_queued then
            err Ownership_violation "queued fat acquire while already owning the monitor"
          else Ok { st with st = Fat (t, d + 1) }
      | Fat _ ->
          err Ownership_violation "fat acquire while another thread owns the monitor"
      | Flat | Thin _ -> err Stale_handle "fat acquire with no live monitor")
  | Event.Release_fast -> (
      match st.st with
      | Thin (o, 1) when o = t -> Ok { st with st = Flat }
      | Thin (o, d) when o = t ->
          err Count_error
            (Printf.sprintf "fast release at depth %d (expected nested)" d)
      | Flat -> err Unlock_without_lock "release of an unlocked object"
      | Thin _ -> err Ownership_violation "fast release of another thread's thin lock"
      | Inflating _ | Fat _ ->
          err Ownership_violation "thin release of an inflated object")
  | Event.Release_nested -> (
      match st.st with
      | Thin (o, d) when o = t && d >= 2 -> Ok { st with st = Thin (t, d - 1) }
      | Thin (o, _) when o = t ->
          err Count_error "nested release at depth 1 (expected fast)"
      | Flat -> err Unlock_without_lock "release of an unlocked object"
      | Thin _ -> err Ownership_violation "nested release of another thread's thin lock"
      | Inflating _ | Fat _ ->
          err Ownership_violation "thin release of an inflated object")
  | Event.Release_fat -> (
      match st.st with
      | Fat (o, d) when o = t ->
          Ok { st with st = (if d > 1 then Fat (t, d - 1) else Fat (0, 0)) }
      | Fat (0, _) -> (
          match resume st t with
          | Some st' -> step ~max_thin ~cjm st' e
          | None -> err Unlock_without_lock "fat release of an unowned monitor")
      | Fat _ -> err Ownership_violation "fat release by a non-owner"
      | Inflating _ -> err Ownership_violation "fat release on an object mid-inflation"
      | Flat -> err Unlock_without_lock "release of an unlocked object"
      | Thin _ -> err Stale_handle "fat release on a thin-locked object")
  | Event.Inflate_contention -> (
      if cjm then err Stream_malformed "thin-lock inflation event in a cjm stream"
      else
      match st.st with
      | Flat -> Ok { st with st = Inflating (t, 1) }
      | Thin _ ->
          err Ownership_violation
            "contention inflation while the thin lock is held (inflater must seize the unlocked word first)"
      | Inflating _ | Fat _ ->
          err Reinflation_of_retired "inflation of an already-inflated object")
  | Event.Inflate_overflow -> (
      if cjm then err Stream_malformed "thin-lock inflation event in a cjm stream"
      else
      match st.st with
      | Thin (o, d) when o = t -> Ok { st with st = Inflating (t, d + 1) }
      | Thin _ ->
          err Ownership_violation "overflow inflation of another thread's thin lock"
      | Flat -> err Count_error "overflow inflation with no held thin lock"
      | Inflating _ | Fat _ ->
          err Reinflation_of_retired "inflation of an already-inflated object")
  | Event.Inflate_wait -> (
      if cjm then err Stream_malformed "thin-lock inflation event in a cjm stream"
      else
      match st.st with
      | Thin (o, d) when o = t -> Ok { st with st = Fat (t, d) }
      | Thin _ ->
          err Ownership_violation "wait inflation of another thread's thin lock"
      | Flat -> err Ownership_violation "wait inflation with no lock held"
      | Inflating _ | Fat _ ->
          err Reinflation_of_retired "inflation of an already-inflated object")
  | Event.Wait_op -> (
      match st.st with
      | Fat (o, d) when o = t ->
          Ok { st with st = Fat (0, 0); waiters = IntMap.add t d st.waiters }
      | Fat (0, _) -> (
          match resume st t with
          | Some st' -> step ~max_thin ~cjm st' e
          | None -> err Ownership_violation "wait by a thread not owning the monitor")
      | Fat _ -> err Ownership_violation "wait by a non-owner"
      | Inflating _ -> err Ownership_violation "wait on an object mid-inflation"
      | Flat | Thin _ -> err Stale_handle "wait outside a fat monitor")
  | Event.Notify_op | Event.Notify_all_op -> (
      match st.st with
      | Thin (o, _) when o = t -> Ok st  (* no waiters possible on a thin lock *)
      | Fat (o, _) when o = t ->
          let w = IntMap.cardinal st.waiters in
          let signals =
            if e.kind = Event.Notify_all_op then w else min w (st.signals + 1)
          in
          Ok { st with signals }
      | Fat (0, _) -> (
          match resume st t with
          | Some st' -> step ~max_thin ~cjm st' e
          | None -> err Ownership_violation "notify by a thread not owning the monitor")
      | Fat _ -> err Ownership_violation "notify by a non-owner"
      | Inflating _ -> err Ownership_violation "notify on an object mid-inflation"
      | Flat | Thin _ -> err Ownership_violation "notify without holding the lock")
  | Event.Deflate_quiescent | Event.Deflate_concurrent -> (
      if cjm then err Stream_malformed "thin-lock deflation event in a cjm stream"
      else
      match st.st with
      | Fat (0, _) when IntMap.is_empty st.waiters ->
          Ok { st with st = Flat; signals = 0 }
      | Fat (0, _) ->
          err Deflation_without_handshake "deflation of a monitor with parked waiters"
      | Fat _ -> err Deflation_without_handshake "deflation of an owned monitor"
      | Inflating _ ->
          err Deflation_without_handshake "deflation of a monitor mid-inflation"
      | Flat | Thin _ ->
          err Deflation_without_handshake "deflation of an object with no live monitor")
  | Event.Deflate_aborted -> (
      if cjm then err Stream_malformed "thin-lock deflation event in a cjm stream"
      else
      match st.st with
      | Fat _ | Inflating _ -> Ok st
      | Flat | Thin _ ->
          err Stale_handle "aborted deflation handshake with no live monitor")
  | Event.Cjm_monitor_create -> (
      if not cjm then err Stream_malformed "cjm lifecycle event in a thin-lock stream"
      else
      match st.st with
      (* Covers both creation paths: a contender materialising a
         monitor on behalf of the inline owner [o] (t <> o), and the
         owner itself inflating for a wait (t = o).  Either way the
         inline depth transfers into the monitor.  A creating
         contender still owes its entry (it is pinned until then). *)
      | Thin (o, d) ->
          Ok
            {
              st with
              st = Fat (o, d);
              pending_entry = (if t = o then None else Some t);
            }
      | Flat -> err Stale_handle "monitor created for an unheld object"
      | Inflating _ | Fat _ ->
          err Reinflation_of_retired "monitor created while one is already live")
  | Event.Cjm_monitor_evaporate -> (
      if not cjm then err Stream_malformed "cjm lifecycle event in a thin-lock stream"
      else
      match st.st with
      | Fat (0, _) when st.pending_entry <> None ->
          err Deflation_without_handshake
            "evaporation before the creating contender entered (it still \
             holds its pin)"
      | Fat (0, _) when IntMap.is_empty st.waiters ->
          Ok { st with st = Flat; signals = 0 }
      | Fat (0, _) ->
          err Deflation_without_handshake
            "evaporation of a monitor with parked waiters"
      | Fat _ -> err Deflation_without_handshake "evaporation of an owned monitor"
      | Inflating _ ->
          err Deflation_without_handshake "evaporation of a monitor mid-inflation"
      | Flat | Thin _ ->
          err Stale_handle "evaporation of an object with no live monitor")
  | Event.Contended_begin ->
      let d = Option.value ~default:0 (IntMap.find_opt t st.cb) in
      Ok { st with cb = IntMap.add t (d + 1) st.cb }
  | Event.Contended_end -> (
      match IntMap.find_opt t st.cb with
      | Some d when d > 0 ->
          let cb =
            if d = 1 then IntMap.remove t st.cb else IntMap.add t (d - 1) st.cb
          in
          Ok { st with cb }
      | _ ->
          err Stream_malformed "contended-end without a matching contended-begin")
  | Event.Reaper_scan | Event.Quiescence | Event.Tid_overflow
  | Event.Policy_switch ->
      Ok st

(* ------------------------------------------------------------------ *)
(* Routing and structural checks.                                     *)
(* ------------------------------------------------------------------ *)

(* Events whose [arg] is an object id and which drive the automaton —
   the same predicate the sink's 1-in-N object sampling keys on, so a
   sampled stream keeps whole per-object histories. *)
let is_object_event = Event.carries_object

(* Events only a mutator thread can emit: a tid-0 instance means a
   thread-path event landed on the system stream. *)
let is_thread_path = function
  | Event.Acquire_fast | Event.Acquire_nested | Event.Acquire_fat
  | Event.Acquire_fat_queued | Event.Release_fast | Event.Release_nested
  | Event.Release_fat | Event.Inflate_contention | Event.Inflate_wait
  | Event.Inflate_overflow | Event.Contended_begin | Event.Contended_end
  | Event.Wait_op | Event.Notify_op | Event.Notify_all_op
  (* CJM has no system-stream deflater: both lifecycle steps are taken
     by a mutator (the contender that materialises the monitor, the
     unpinner that evaporates it). *)
  | Event.Cjm_monitor_create | Event.Cjm_monitor_evaporate ->
      true
  | Event.Deflate_quiescent | Event.Deflate_concurrent | Event.Deflate_aborted
  | Event.Reaper_scan | Event.Quiescence | Event.Tid_overflow
  | Event.Policy_switch ->
      false

(* A thread-path event on tid 0 is excluded from the automaton (owner 0
   doubles as "unowned" there); the structural pass has already flagged
   the stream. *)
let routable (e : Event.t) =
  is_object_event e.kind && not (is_thread_path e.kind && e.tid = 0)

let structural (d : Sink.drained) push =
  let events = d.Sink.events in
  let n = Array.length events in
  let monotone = ref true in
  (try
     for i = 1 to n - 1 do
       if events.(i).Event.seq <= events.(i - 1).Event.seq then begin
         monotone := false;
         push
           {
             cls = Stream_malformed;
             seq = events.(i).Event.seq;
             tid = events.(i).Event.tid;
             obj_id = -1;
             detail = "seq not strictly increasing (duplicated or reordered event)";
           };
         raise Exit
       end
     done
   with Exit -> ());
  (* A drop-free drain is dense from 0: every ticket issued was
     recorded, so a gap means an event went missing after the fact. *)
  if !monotone && d.Sink.dropped = [] && n > 0 then begin
    let first = events.(0).Event.seq and last = events.(n - 1).Event.seq in
    if first <> 0 then
      push
        {
          cls = Stream_malformed;
          seq = first;
          tid = events.(0).Event.tid;
          obj_id = -1;
          detail = "stream does not start at seq 0 yet records no drops";
        }
    else if last <> n - 1 then
      push
        {
          cls = Stream_malformed;
          seq = last;
          tid = events.(n - 1).Event.tid;
          obj_id = -1;
          detail = "seq gap with no recorded drops (event missing)";
        }
  end
  else if !monotone && d.Sink.dropped <> [] && n > 0 then begin
    (* Drops excuse holes — but only as many as were honestly counted.
       (The sink's own drains renumber densely, so any holes here come
       from external tools editing a dump.) *)
    let total = List.fold_left (fun acc (_, k) -> acc + k) 0 d.Sink.dropped in
    let first = events.(0).Event.seq and last = events.(n - 1).Event.seq in
    if first < 0 then
      push
        {
          cls = Stream_malformed;
          seq = first;
          tid = events.(0).Event.tid;
          obj_id = -1;
          detail = "negative seq";
        }
    else if last + 1 - n > total then
      push
        {
          cls = Stream_malformed;
          seq = last;
          tid = events.(n - 1).Event.tid;
          obj_id = -1;
          detail =
            Printf.sprintf "%d seq holes but only %d recorded drops"
              (last + 1 - n) total;
        }
  end;
  try
    Array.iter
      (fun (e : Event.t) ->
        if e.tid = 0 && is_thread_path e.kind then begin
          push
            {
              cls = Stream_malformed;
              seq = e.seq;
              tid = 0;
              obj_id = e.arg;
              detail =
                Printf.sprintf "thread-path event %s on the system stream (tid 0)"
                  (Event.kind_name e.kind);
            };
          raise Exit
        end)
      events
  with Exit -> ()

let finish_object ~require_unlocked_end push id (st : ostate) =
  (if require_unlocked_end then
     match st.st with
     | Thin (o, d) ->
         push
           {
             cls = Stream_malformed;
             seq = -1;
             tid = o;
             obj_id = id;
             detail =
               Printf.sprintf
                 "object still thin-held (owner %d, depth %d) at end of stream" o d;
           }
     | Inflating (o, _) ->
         push
           {
             cls = Stream_malformed;
             seq = -1;
             tid = o;
             obj_id = id;
             detail = "object still mid-inflation at end of stream";
           }
     | Fat (o, d) when o <> 0 ->
         push
           {
             cls = Stream_malformed;
             seq = -1;
             tid = o;
             obj_id = id;
             detail =
               Printf.sprintf
                 "monitor still owned (owner %d, depth %d) at end of stream" o d;
           }
     | Flat | Fat _ -> ());
  if st.signals > 0 && not (IntMap.is_empty st.waiters) then begin
    let tid, _ = IntMap.min_binding st.waiters in
    push
      {
        cls = Lost_wakeup;
        seq = -1;
        tid;
        obj_id = id;
        detail =
          Printf.sprintf
            "%d waiter(s) never exited wait despite %d undelivered notification(s)"
            (IntMap.cardinal st.waiters) st.signals;
      }
  end

(* ------------------------------------------------------------------ *)
(* Strict engine: events applied in seq order.                        *)
(* ------------------------------------------------------------------ *)

type entry = { mutable st : ostate; mutable dead : bool }

let run_strict ~max_thin ~cjm ~require_unlocked_end (d : Sink.drained) push =
  let tbl : (int, entry) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (e : Event.t) ->
      if routable e then begin
        let entry =
          match Hashtbl.find_opt tbl e.arg with
          | Some en -> en
          | None ->
              let en = { st = initial; dead = false } in
              Hashtbl.add tbl e.arg en;
              en
        in
        if not entry.dead then
          match step ~max_thin ~cjm entry.st e with
          | Ok st' -> entry.st <- st'
          | Error (cls, detail) ->
              entry.dead <- true;
              push { cls; seq = e.seq; tid = e.tid; obj_id = e.arg; detail }
      end)
    d.Sink.events;
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) tbl [] in
  List.iter
    (fun id ->
      let entry = Hashtbl.find tbl id in
      if not entry.dead then finish_object ~require_unlocked_end push id entry.st)
    (List.sort compare ids);
  Hashtbl.length tbl

(* ------------------------------------------------------------------ *)
(* Relaxed engine: per-object, per-thread queues linearised greedily  *)
(* by smallest enabled seq, with bounded backtracking.                *)
(* ------------------------------------------------------------------ *)

type frame = {
  f_idx : int array;
  f_state : ostate;
  f_lc : int;
  mutable f_alts : int list;
}

(* Greedy fast path.  The backtracking search below recomputes and
   sorts the whole head set at every step — fine for replay streams
   with a handful of threads per object, but quadratic when a fiber
   storm funnels tens of thousands of recycled tids through one hot
   object.  Clean streams almost never need backtracking, so first try
   to linearise greedily, and do it the way a real scheduler would:
   blocked heads {e park} instead of being rescanned.

   Active heads live in a min-heap by seq; the smallest head is
   stepped, and on failure parks in a wake bucket chosen by what the
   head is waiting for.  Inspection of [step] shows every
   blocked-now-enabled-later case needs one of exactly two things
   another thread can provide:

   - the object becoming [Flat] — fast acquires, contention inflation;
   - the monitor becoming unowned ([Fat (0, _)]), or its
     signals/waiters changing — fat acquires, the implicit-resume
     paths of [Release_fat]/[Wait_op]/[Notify_op], and deflations.

   Everything else ([Acquire_nested], thin releases, overflow/wait
   inflation, [Contended_end]) is a precondition only the head's own
   earlier events could have established, so no other queue's step can
   enable it: those heads park in [limbo] and are only reconsidered by
   the rescue scan.  The CJM protocol adds one more gate: a
   [Cjm_monitor_create] head waits on the object becoming {e thin-held}
   (another thread's fast acquire), so those heads get their own bucket
   woken by transitions into [Thin]; [Cjm_monitor_evaporate] waits on
   the fat-unowned gate like a deflation.  After each successful step, a transition into
   [Flat] wakes one head of the flat bucket and a change of the
   unowned/signals/waiters gate wakes one of the fat bucket (one
   suffices: consuming a woken head re-fires the wake, walking any
   chain).  Woken heads rejoin the heap, so seq order still decides
   when they run.  Should the heap drain with heads still parked — a
   missed wake is possible since buckets are rotated, not scanned — a
   full rescue scan re-tests every parked head; only when that finds
   nothing enabled is this a dead end, and the exhaustive search
   decides.  Success exhibits a feasible interleaving of the
   per-thread subsequences — exactly the relaxed-mode obligation — in
   O(events · log queues) for well-formed streams of any width. *)
(* A CJM monitor creation popping while the object is thin-held and the
   inline owner's {e own} next event still takes the thin path cannot be
   linearised here: once the object goes fat, a pending
   [Release_fast]/[Acquire_nested] of the owner can never apply again
   (only the owner's own [Acquire_fast] re-establishes [Thin (o, _)],
   and that sits behind the blocked head).  Conversely the owner's next
   event being fat-path ([Release_fat], a nested [Acquire_fat], a
   [Wait_op]) witnesses that the creation belongs to {e this} hold.
   Epoch-stamped streams need the gate because a contender's creation
   routinely carries a stamp from a different hold of the same owner.
   Gating on it prunes only provably dead branches, so both relaxed
   engines stay complete. *)
let cjm_create_blocked (queues : Event.t array array) queue_of_tid
    (idx : int array) (st : ostate) (e : Event.t) =
  e.Event.kind = Event.Cjm_monitor_create
  &&
  match st.st with
  | Thin (o, _) when o <> e.tid -> (
      match Hashtbl.find_opt queue_of_tid o with
      | None -> true
      | Some oq -> (
          idx.(oq) >= Array.length queues.(oq)
          ||
          match queues.(oq).(idx.(oq)).Event.kind with
          | Event.Release_fat | Event.Acquire_fat | Event.Acquire_fat_queued
          | Event.Wait_op | Event.Notify_op | Event.Notify_all_op ->
              false
          | _ -> true))
  | _ -> false

let queue_index_by_tid (queues : Event.t array array) =
  let h = Hashtbl.create 8 in
  Array.iteri
    (fun qi q -> if Array.length q > 0 then Hashtbl.replace h q.(0).Event.tid qi)
    queues;
  h

(* CJM lifecycle events take ticket stamps under the object's stripe
   (see [Sink.emit_ordered]), so per object they are totally ordered by
   seq: creations and evaporations alternate and never reorder across
   threads.  Both relaxed engines enforce that order outright — a
   lifecycle head is steppable only when every smaller-seq lifecycle
   event of the object has been consumed.  Without the gate, the
   deferral machinery can pop a later-ticket creation past a pending
   earlier-ticket evaporation and pair monitor generations wrong; the
   resulting prefix looks locally legal and dead-ends thousands of
   events later, far beyond any search budget.  Epoch-stamped mutator
   events still float freely around the lifecycle spine — that is the
   skew the relaxed engines exist to absorb. *)
let is_lifecycle (e : Event.t) =
  match e.Event.kind with
  | Event.Cjm_monitor_create | Event.Cjm_monitor_evaporate -> true
  | _ -> false

let lifecycle_seqs (queues : Event.t array array) =
  let acc = ref [] in
  Array.iter
    (fun q ->
      Array.iter
        (fun (e : Event.t) -> if is_lifecycle e then acc := e.Event.seq :: !acc)
        q)
    queues;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let greedy_linearise ~max_thin ~cjm (queues : Event.t array array) =
  let nq = Array.length queues in
  let idx = Array.make nq 0 in
  let queue_of_tid = queue_index_by_tid queues in
  let life = lifecycle_seqs queues in
  let lc = ref 0 in
  (* Every step in this engine goes through both gates: waking a
     gate-blocked head with the raw [step] would bounce it between a
     rescue and a re-park forever. *)
  let step ~max_thin ~cjm st e =
    if
      is_lifecycle e && (!lc >= Array.length life || e.Event.seq <> life.(!lc))
    then Error (Ownership_violation, "cjm lifecycle event ahead of ticket order")
    else if cjm_create_blocked queues queue_of_tid idx st e then
      Error
        ( Ownership_violation,
          "monitor created during a thin hold whose owner still takes the \
           thin path" )
    else step ~max_thin ~cjm st e
  in
  let heap = Array.make (max nq 1) 0 in
  let heap_n = ref 0 in
  let seq_of qi = queues.(qi).(idx.(qi)).Event.seq in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let rec up i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if seq_of heap.(i) < seq_of heap.(p) then begin
        swap i p;
        up p
      end
    end
  in
  let rec down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < !heap_n && seq_of heap.(l) < seq_of heap.(!m) then m := l;
    if r < !heap_n && seq_of heap.(r) < seq_of heap.(!m) then m := r;
    if !m <> i then begin
      swap i !m;
      down !m
    end
  in
  (* Destructive heads (deflations, CJM evaporations) get held back
     while a non-destructive head is active — see the main loop.
     [heap_destr] counts destructive heads currently in the heap (a
     head's kind is fixed while it sits there), so the loop can tell
     "other work pending" from "only destructions left". *)
  let destructive qi =
    match queues.(qi).(idx.(qi)).Event.kind with
    | Event.Deflate_quiescent | Event.Deflate_concurrent
    | Event.Cjm_monitor_evaporate ->
        true
    | _ -> false
  in
  (* A contention inflation is held back while a fast acquire is
     among the heads: the inflater contended because another thread
     held the lock thin, and that holder's episode may carry a later
     stamp in the same epoch.  Taking the inflation first would strand
     the episode behind a monitor.  [heap_fast] counts the fast
     acquires in the heap. *)
  let fast qi = queues.(qi).(idx.(qi)).Event.kind = Event.Acquire_fast in
  let inflation qi =
    queues.(qi).(idx.(qi)).Event.kind = Event.Inflate_contention
  in
  let heap_destr = ref 0 and heap_fast = ref 0 in
  let push qi =
    heap.(!heap_n) <- qi;
    incr heap_n;
    up (!heap_n - 1);
    if destructive qi then incr heap_destr;
    if fast qi then incr heap_fast
  in
  let pop () =
    let q = heap.(0) in
    decr heap_n;
    heap.(0) <- heap.(!heap_n);
    if !heap_n > 0 then down 0;
    if destructive q then decr heap_destr;
    if fast q then decr heap_fast;
    q
  in
  for qi = 0 to nq - 1 do
    if Array.length queues.(qi) > 0 then push qi
  done;
  let state = ref initial in
  let parked_flat = Queue.create () in
  let parked_thin = Queue.create () in
  let parked_fat = Queue.create () in
  (* Destructive heads (deflations, CJM evaporations) held back while
     any other head is still active — see the main loop. *)
  let deferred = Queue.create () in
  let limbo = ref [] in
  let parked_n = ref 0 in
  let park qi =
    incr parked_n;
    match queues.(qi).(idx.(qi)).Event.kind with
    | Event.Acquire_fast | Event.Inflate_contention ->
        Queue.push qi parked_flat
    | Event.Cjm_monitor_create -> Queue.push qi parked_thin
    | Event.Acquire_fat | Event.Acquire_fat_queued | Event.Release_fat
    | Event.Wait_op | Event.Notify_op | Event.Notify_all_op
    | Event.Deflate_quiescent | Event.Deflate_concurrent
    | Event.Deflate_aborted | Event.Cjm_monitor_evaporate ->
        Queue.push qi parked_fat
    | _ -> limbo := qi :: !limbo
  in
  (* Rotate the bucket until an enabled head rejoins the heap.  On the
     transitions that fire a wake, the bucket front is normally exactly
     the kind of head the transition unblocked, so this is O(1); heads
     blocked for another reason (e.g. a resume without its waiter
     registered yet) cycle to the back. *)
  let wake_one bucket =
    let n = Queue.length bucket in
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i < n do
      incr i;
      let qi = Queue.pop bucket in
      match step ~max_thin ~cjm !state queues.(qi).(idx.(qi)) with
      | Ok _ ->
          decr parked_n;
          push qi;
          found := true
      | Error _ -> Queue.push qi bucket
    done
  in
  let is_flat (st : ostate) = match st.st with Flat -> true | _ -> false in
  let is_thin (st : ostate) = match st.st with Thin _ -> true | _ -> false in
  let fat_sig (st : ostate) =
    match st.st with
    | Fat (o, d) -> Some (o, d, st.signals, IntMap.cardinal st.waiters)
    | _ -> None
  in
  let after_step old_st =
    let st' = !state in
    if is_flat st' && not (is_flat old_st) then wake_one parked_flat;
    if is_thin st' && not (is_thin old_st) then wake_one parked_thin;
    (* Any change of the fat signature can unblock a fat-gated head:
       becoming unowned or a signals/waiters change enables fat
       acquires and resumes, and becoming {e owned} matters too — a
       CJM contender's [Cjm_monitor_create] hands the monitor to the
       inline owner, whose parked [Release_fat] only then applies. *)
    if fat_sig st' <> None && fat_sig st' <> fat_sig old_st then
      wake_one parked_fat
  in
  let rescue_bucket rescued bucket =
    let n = Queue.length bucket in
    for _ = 1 to n do
      let qi = Queue.pop bucket in
      match step ~max_thin ~cjm !state queues.(qi).(idx.(qi)) with
      | Ok _ ->
          decr parked_n;
          incr rescued;
          push qi
      | Error _ -> Queue.push qi bucket
    done
  in
  (* A deflation or evaporation destroys the very state other queues'
     heads may still need: event stamps are per-domain epoch stamps,
     so a fat acquire that really entered the monitor {e before} it
     evaporated can carry a later stamp and still sit in the heap (or
     a park bucket) when the evaporation pops.  Taking the evaporation
     first is then a wrong turn the greedy pass cannot undo.  Deferring
     is safe while a {e non-destructive} head is active — destruction
     enables nothing except through the [Flat] it produces, and the
     deferred head is retried the moment the heap drains.  But once
     only destructive heads remain, they must run in seq order:
     deferring the smaller-stamped of two pending evaporations would
     let the later one claim the current [Fat (0, _)] and orphan the
     earlier thread's whole queue behind a destruction whose window
     has passed. *)
  let rescue_deferred rescued =
    let n = Queue.length deferred in
    for _ = 1 to n do
      let qi = Queue.pop deferred in
      decr parked_n;
      match step ~max_thin ~cjm !state queues.(qi).(idx.(qi)) with
      | Ok _ ->
          incr rescued;
          push qi
      | Error _ -> park qi
    done
  in
  let result = ref None in
  let give_up = ref false in
  while (not !give_up) && !result = None do
    if !heap_n > 0 then begin
      let qi = pop () in
      if
        (destructive qi && !heap_n - !heap_destr > 0)
        || (inflation qi && !heap_fast > 0)
      then begin
        incr parked_n;
        Queue.push qi deferred
      end
      else begin
        (* Destruction only as a last resort: a fat-gated head parked
           earlier (the rotation wake recovers one head per transition,
           not all) may be enabled at this very pre-destruction state —
           e.g. a queued fat acquire that really entered the monitor
           before it evaporated.  Rescue those first; the destructive
           head rejoins the heap and re-defers while they run. *)
        let rescued = ref 0 in
        if destructive qi then begin
          rescue_bucket rescued parked_fat;
          if !rescued > 0 then push qi
        end;
        if !rescued = 0 then
          match step ~max_thin ~cjm !state queues.(qi).(idx.(qi)) with
          | Ok st' ->
              let old_st = !state in
              state := st';
              if is_lifecycle queues.(qi).(idx.(qi)) then incr lc;
              idx.(qi) <- idx.(qi) + 1;
              if idx.(qi) < Array.length queues.(qi) then push qi;
              after_step old_st
          | Error _ -> park qi
      end
    end
    else if !parked_n = 0 then result := Some !state
    else begin
      (* Heap drained with heads still parked: first release any
         deferred destructive heads (nothing else is active, so they
         are now safe to take); only if none applies, run the full
         rescue scan.  Every currently-enabled parked head rejoins the
         heap; if none is, this path is a genuine dead end. *)
      let rescued = ref 0 in
      rescue_deferred rescued;
      if !rescued = 0 then begin
        rescue_bucket rescued parked_flat;
        rescue_bucket rescued parked_thin;
        rescue_bucket rescued parked_fat;
        let keep = ref [] in
        List.iter
          (fun qi ->
            match step ~max_thin ~cjm !state queues.(qi).(idx.(qi)) with
            | Ok _ ->
                decr parked_n;
                incr rescued;
                push qi
            | Error _ -> keep := qi :: !keep)
          !limbo;
        limbo := !keep;
        if !rescued = 0 then give_up := true
      end
    end
  done;
  !result

let verify_object_search ~max_thin ~cjm (queues : Event.t array array) =
  let nq = Array.length queues in
  let idx = Array.make nq 0 in
  let queue_of_tid = queue_index_by_tid queues in
  let life = lifecycle_seqs queues in
  let lc = ref 0 in
  (* Same gates as the greedy engine ([lifecycle_seqs],
     [cjm_create_blocked]): they prune only branches that violate the
     ticket order or have a provably stuck owner queue, and keep the
     first descent from wiring a creation to the wrong thin hold and
     burning the budget backtracking out. *)
  let step ~max_thin ~cjm st e =
    if
      is_lifecycle e && (!lc >= Array.length life || e.Event.seq <> life.(!lc))
    then Error (Ownership_violation, "cjm lifecycle event ahead of ticket order")
    else if cjm_create_blocked queues queue_of_tid idx st e then
      Error
        ( Ownership_violation,
          "monitor created during a thin hold whose owner still takes the \
           thin path" )
    else step ~max_thin ~cjm st e
  in
  let total = Array.fold_left (fun a q -> a + Array.length q) 0 queues in
  let fuel = ref ((total * 64) + 1024) in
  let stack = ref [] in
  let state = ref initial in
  (* queue indices with events remaining, smallest head seq first *)
  let heads () =
    let hs = ref [] in
    for i = nq - 1 downto 0 do
      if idx.(i) < Array.length queues.(i) then hs := i :: !hs
    done;
    List.sort
      (fun a b ->
        compare queues.(a).(idx.(a)).Event.seq queues.(b).(idx.(b)).Event.seq)
      !hs
  in
  let budget_exceeded (e : Event.t) =
    Error (e, Stream_malformed, "relaxed verification budget exceeded")
  in
  (* Destruction (deflation / evaporation) tried last: epoch-stamped
     streams routinely stamp a fat acquire {e after} the evaporation it
     really preceded, so the seq-ordered first descent would commit the
     wrong turn and burn the whole budget backtracking out of it.
     Trying every non-destructive head first makes the first descent
     mirror the greedy pass's deferral, with completeness kept by the
     alternatives list. *)
  let is_destructive (e : Event.t) =
    match e.Event.kind with
    | Event.Deflate_quiescent | Event.Deflate_concurrent
    | Event.Cjm_monitor_evaporate ->
        true
    | _ -> false
  in
  let rec loop () =
    let hs = heads () in
    match hs with
    | [] -> Ok !state
    | first :: _ -> (
        let enabled =
          List.filter_map
            (fun i ->
              match step ~max_thin ~cjm !state queues.(i).(idx.(i)) with
              | Ok st' -> Some (i, st')
              | Error _ -> None)
            hs
        in
        let enabled =
          let keep, destr =
            List.partition
              (fun (i, _) -> not (is_destructive queues.(i).(idx.(i))))
              enabled
          in
          keep @ destr
        in
        match enabled with
        | [] -> backtrack hs
        | (i, st') :: alts ->
            if !fuel <= 0 then budget_exceeded queues.(first).(idx.(first))
            else begin
              decr fuel;
              if alts <> [] then
                stack :=
                  {
                    f_idx = Array.copy idx;
                    f_state = !state;
                    f_lc = !lc;
                    f_alts = List.map fst alts;
                  }
                  :: !stack;
              state := st';
              if is_lifecycle queues.(i).(idx.(i)) then incr lc;
              idx.(i) <- idx.(i) + 1;
              loop ()
            end)
  and backtrack hs =
    match !stack with
    | [] -> blocked hs
    | frame :: frames -> (
        if !fuel <= 0 then
          let i = List.hd hs in
          budget_exceeded queues.(i).(idx.(i))
        else
          match frame.f_alts with
          | [] ->
              stack := frames;
              backtrack hs
          | a :: rest -> (
              decr fuel;
              Array.blit frame.f_idx 0 idx 0 nq;
              state := frame.f_state;
              lc := frame.f_lc;
              frame.f_alts <- rest;
              if rest = [] then stack := frames;
              match step ~max_thin ~cjm !state queues.(a).(idx.(a)) with
              | Ok st' ->
                  state := st';
                  if is_lifecycle queues.(a).(idx.(a)) then incr lc;
                  idx.(a) <- idx.(a) + 1;
                  loop ()
              | Error _ ->
                  (* the alternative was enabled when the frame was
                     pushed, from the very state just restored *)
                  assert false))
  and blocked hs =
    (* dead end with no alternatives left: no interleaving of the
       per-thread subsequences satisfies the automaton.  Report the
       smallest-seq blocked head — the event ticket order says came
       first. *)
    let i = List.hd hs in
    let e = queues.(i).(idx.(i)) in
    match step ~max_thin ~cjm !state e with
    | Error (cls, detail) -> Error (e, cls, detail)
    | Ok _ -> assert false
  in
  loop ()

let verify_object_relaxed ~max_thin ~cjm (queues : Event.t array array) =
  match greedy_linearise ~max_thin ~cjm queues with
  | Some st -> Ok st
  | None -> verify_object_search ~max_thin ~cjm queues

let run_relaxed ~max_thin ~cjm ~require_unlocked_end (d : Sink.drained) push =
  (* Group per object, preserving per-thread order (the input is seq
     sorted, so consing then reversing keeps each thread's
     subsequence). *)
  let tbl : (int, (int, Event.t list ref) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  Array.iter
    (fun (e : Event.t) ->
      if routable e then begin
        let per_tid =
          match Hashtbl.find_opt tbl e.arg with
          | Some h -> h
          | None ->
              let h = Hashtbl.create 8 in
              Hashtbl.add tbl e.arg h;
              h
        in
        match Hashtbl.find_opt per_tid e.tid with
        | Some l -> l := e :: !l
        | None -> Hashtbl.add per_tid e.tid (ref [ e ])
      end)
    d.Sink.events;
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) tbl [] in
  List.iter
    (fun id ->
      let per_tid = Hashtbl.find tbl id in
      let tids = Hashtbl.fold (fun tid _ acc -> tid :: acc) per_tid [] in
      let queues =
        List.sort compare tids
        |> List.map (fun tid ->
               Array.of_list (List.rev !(Hashtbl.find per_tid tid)))
        |> Array.of_list
      in
      match verify_object_relaxed ~max_thin ~cjm queues with
      | Ok st -> finish_object ~require_unlocked_end push id st
      | Error (e, cls, detail) ->
          push { cls; seq = e.Event.seq; tid = e.Event.tid; obj_id = id; detail })
    (List.sort compare ids);
  Hashtbl.length tbl

(* ------------------------------------------------------------------ *)
(* Entry points.                                                      *)
(* ------------------------------------------------------------------ *)

let check ?(mode = Strict) ?(protocol = Thin_lock) ?count_width
    ?(require_unlocked_end = true) (d : Sink.drained) =
  let max_thin =
    match count_width with
    | None -> max_int
    | Some w ->
        if w < 1 || w > 8 then invalid_arg "Oracle.check: count_width"
        else 1 lsl w
  in
  let cjm = protocol = Cjm in
  let violations = ref [] in
  let push v = violations := v :: !violations in
  structural d push;
  let objects =
    match mode with
    | Strict -> run_strict ~max_thin ~cjm ~require_unlocked_end d push
    | Relaxed -> run_relaxed ~max_thin ~cjm ~require_unlocked_end d push
  in
  let key v = if v.seq < 0 then max_int else v.seq in
  let violations =
    List.stable_sort (fun a b -> compare (key a) (key b)) (List.rev !violations)
  in
  { mode; events = Array.length d.Sink.events; objects; violations }

let ok r = r.violations = []
let exit_code r = if ok r then 0 else 1
let find r cls = List.find_opt (fun v -> v.cls = cls) r.violations

let pp ppf (r : report) =
  let mode = match r.mode with Strict -> "strict" | Relaxed -> "relaxed" in
  if ok r then
    Format.fprintf ppf "clean: %d events over %d objects verified (%s mode)"
      r.events r.objects mode
  else begin
    Format.fprintf ppf "%d violation(s) in %d events over %d objects (%s mode):"
      (List.length r.violations) r.events r.objects mode;
    List.iter
      (fun v ->
        let seq = if v.seq < 0 then "end" else string_of_int v.seq in
        Format.fprintf ppf "@\n  [%s] seq %s tid %d obj %d: %s"
          (class_name v.cls) seq v.tid v.obj_id v.detail)
      r.violations
  end
