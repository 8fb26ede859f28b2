module IntMap = Map.Make (Int)

(* Tables keyed by object id or tid, hashed without a C call. *)
module IntTbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

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

(* Accepted and ignored by [check]: one engine decides every stream. *)
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
  pending_entry : int option;
      (* CJM: the contender that materialised the live monitor but has
         not yet reported entering it.  The creator holds a pin from
         inflation until after its queued acquire, so the monitor
         cannot evaporate while this is set. *)
}

let initial =
  {
    st = Flat;
    waiters = IntMap.empty;
    signals = 0;
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

(* [begins.(tid)]: the tid's open contended-begin depth on this object. *)
let rec step ~max_thin ~cjm ~begins st (e : Event.t) =
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
          | Some st' -> step ~max_thin ~cjm ~begins st' e
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
          | Some st' -> step ~max_thin ~cjm ~begins st' e
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
          | Some st' -> step ~max_thin ~cjm ~begins st' e
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
      begins.(t) <- begins.(t) + 1;
      Ok st
  | Event.Contended_end ->
      if begins.(t) > 0 then begin
        begins.(t) <- begins.(t) - 1;
        Ok st
      end
      else err Stream_malformed "contended-end without a matching contended-begin"
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

(* No sink issues a tid outside [0, Sink.max_tids): a stream that
   carries one was edited or forged. *)
let tid_in_range tid = tid >= 0 && tid < Sink.max_tids

(* A thread-path event on tid 0 is excluded from the automaton (owner 0
   doubles as "unowned" there), and so is an event whose tid no sink
   issues; the structural pass has already flagged the stream. *)
let routable (e : Event.t) =
  is_object_event e.kind && tid_in_range e.tid && not (is_thread_path e.kind && e.tid = 0)

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
  (* the first event of each kind of misattribution *)
  let out_of_range = ref false and system_thread_path = ref false in
  Array.iter
    (fun (e : Event.t) ->
      if (not !out_of_range) && not (tid_in_range e.tid) then begin
        out_of_range := true;
        push
          {
            cls = Stream_malformed;
            seq = e.seq;
            tid = e.tid;
            obj_id = -1;
            detail = Printf.sprintf "tid %d outside the sink's range [0, %d)" e.tid Sink.max_tids;
          }
      end
      else if (not !system_thread_path) && e.tid = 0 && is_thread_path e.kind then begin
        system_thread_path := true;
        push
          {
            cls = Stream_malformed;
            seq = e.seq;
            tid = 0;
            obj_id = e.arg;
            detail =
              Printf.sprintf "thread-path event %s on the system stream (tid 0)"
                (Event.kind_name e.kind);
          }
      end)
    events

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
(* The engine: one object at a time, in the order its holders stamped. *)
(* ------------------------------------------------------------------ *)

(* Position of an event in its object's history: holder-stamped events
   at their ordinal, an observation just after the holder event whose
   ordinal it read.  Ties (observations of the same ordinal) keep seq
   order, which is each thread's program order.  A key is even exactly
   when its event is holder-stamped. *)
let[@inline] holder (e : Event.t) = (Event.holder_kind_mask lsr Event.kind_to_int e.kind) land 1 = 1
let[@inline] key (e : Event.t) = (2 * e.ord) + if holder e then 0 else 1

let malformed (e : Event.t) detail =
  { cls = Stream_malformed; seq = e.seq; tid = e.tid; obj_id = e.arg; detail }

(* The routable events grouped by object: [slots.(lo .. hi - 1)] holds
   one object's events, first in seq order and, once sorted, in
   position order.  A slot packs the event's index into [stream] above
   its tid (routable tids are below [Sink.max_tids]); [keys.(p)] is the
   key of slot [p]'s event and moves with it.  [last] ([backwards]'s
   last key per tid, [min_int] when unseen) and [begins] ([step]'s
   open contended-begin depth per tid) are indexed by tid and cover
   the object under check only: its pass resets its own tids. *)
type groups = {
  stream : Event.t array;
  slots : int array;
  keys : int array;
  last : int array;
  begins : int array;
}

let tid_bits = 15
let () = assert (Sink.max_tids = 1 lsl tid_bits)
let[@inline] slot i tid = (i lsl tid_bits) lor tid
let[@inline] slot_tid g p = g.slots.(p) land (Sink.max_tids - 1)
let[@inline] slot_event g p = g.stream.(g.slots.(p) lsr tid_bits)

(* Are one object's events, in seq order, already in position order?
   So for a stream from one OS thread (plus the system stream, whose
   tickets sort after their causes).  Then no thread can go backwards
   and there is nothing to sort. *)
let in_order g lo hi =
  let keys = g.keys in
  let rec go i = i >= hi || (keys.(i - 1) <= keys.(i) && go (i + 1)) in
  go (lo + 1)

(* The stamps must be consistent before the automaton may trust their
   order.  [backwards] walks one object's events in seq order: a
   thread's events keep its program order, so its positions never
   decrease.  [duplicate] walks them sorted: a holder-stamped ordinal
   is taken once.  ([min_int] as "not seen" needs no test: no key is
   below it.) *)
let backwards g lo hi =
  let last = g.last and keys = g.keys in
  let rec go i =
    if i >= hi then None
    else
      let t = slot_tid g i and k = keys.(i) in
      let k' = last.(t) in
      if k' > k then
        let e = slot_event g i in
        Some
          (malformed e
             (Printf.sprintf "tid %d's ordinals go backwards (ordinal %d after %d)" e.tid e.ord
                (k' / 2)))
      else begin
        last.(t) <- k;
        go (i + 1)
      end
  in
  go lo

(* Stable merge sort of [slots.(lo .. hi - 1)] by [keys], the two
   arrays moved together; [tk]/[ts] hold the left run of a merge. *)
let sort_by_key g lo hi =
  let keys = g.keys and slots = g.slots in
  let tk = Array.make (((hi - lo) / 2) + 1) 0 and ts = Array.make (((hi - lo) / 2) + 1) 0 in
  let rec sort lo hi =
    if hi - lo <= 16 then
      for i = lo + 1 to hi - 1 do
        let k = keys.(i) and s = slots.(i) in
        let j = ref i in
        while !j > lo && keys.(!j - 1) > k do
          keys.(!j) <- keys.(!j - 1);
          slots.(!j) <- slots.(!j - 1);
          decr j
        done;
        keys.(!j) <- k;
        slots.(!j) <- s
      done
    else begin
      let mid = (lo + hi) / 2 in
      sort lo mid;
      sort mid hi;
      if keys.(mid - 1) > keys.(mid) then begin
        let n = mid - lo in
        Array.blit keys lo tk 0 n;
        Array.blit slots lo ts 0 n;
        (* left run from [tk], right run in place; output from [lo] *)
        let i = ref 0 and j = ref mid and out = ref lo in
        while !i < n do
          if !j < hi && keys.(!j) < tk.(!i) then begin
            keys.(!out) <- keys.(!j);
            slots.(!out) <- slots.(!j);
            incr j
          end
          else begin
            keys.(!out) <- tk.(!i);
            slots.(!out) <- ts.(!i);
            incr i
          end;
          incr out
        done
      end
    end
  in
  sort lo hi

let duplicate g lo hi =
  let keys = g.keys in
  let rec go i =
    if i >= hi then None
    else if keys.(i) = keys.(i - 1) && keys.(i) land 1 = 0 then
      let a = slot_event g (i - 1) and b = slot_event g i in
      if a.ord = b.ord then
        Some
          (malformed b
             (Printf.sprintf "holder ordinal %d taken twice (also by seq %d)" b.ord a.seq))
      else go (i + 1)
    else go (i + 1)
  in
  go (lo + 1)

(* Object [id]'s routable events are [slots.(lo .. hi - 1)]. *)
let verify_object ~max_thin ~cjm ~require_unlocked_end push g id lo hi =
  let begins = g.begins in
  let sorted = in_order g lo hi in
  (match if sorted then None else backwards g lo hi with
  | Some v -> push v
  | None -> (
      if not sorted then sort_by_key g lo hi;
      match duplicate g lo hi with
      | Some v -> push v
      | None ->
          let rec go st i =
            if i >= hi then finish_object ~require_unlocked_end push id st
            else
              let e = slot_event g i in
              match step ~max_thin ~cjm ~begins st e with
              | Ok st -> go st (i + 1)
              | Error (cls, detail) -> push { cls; seq = e.seq; tid = e.tid; obj_id = id; detail }
          in
          go initial lo));
  (* hand the tid tables on clean *)
  for i = lo to hi - 1 do
    let t = slot_tid g i in
    g.last.(t) <- min_int;
    begins.(t) <- 0
  done

let seen_mask = 4095

(* Bucket the routable events by object (a counting sort: each bucket
   keeps seq order), key each slot, then verify the objects in id
   order, each over its own range. *)
let run ~max_thin ~cjm ~require_unlocked_end (d : Sink.drained) push =
  let events = d.Sink.events in
  let n = Array.length events in
  let group_of = IntTbl.create 64 in
  (* a direct-mapped cache of [group_of] by the id's low bits, so a
     storm's thousand hot objects resolve without hashing; slot [s]
     starts out holding [s + 1], an id that cannot map to it *)
  let seen_id = Array.init (seen_mask + 1) (fun s -> s + 1) in
  let seen_group = Array.make (seen_mask + 1) 0 in
  let group = Array.make n (-1) in
  let counts = ref (Array.make 64 0) in
  let groups = ref 0 in
  let max_tid = ref 0 in
  Array.iteri
    (fun i (e : Event.t) ->
      if routable e then begin
        let slot = e.arg land seen_mask in
        let g =
          if seen_id.(slot) = e.arg then seen_group.(slot)
          else begin
            let g =
              match IntTbl.find group_of e.arg with
              | g -> g
              | exception Not_found ->
                  let g = !groups in
                  IntTbl.add group_of e.arg g;
                  incr groups;
                  if g >= Array.length !counts then begin
                    let bigger = Array.make (2 * g) 0 in
                    Array.blit !counts 0 bigger 0 g;
                    counts := bigger
                  end;
                  g
            in
            seen_id.(slot) <- e.arg;
            seen_group.(slot) <- g;
            g
          end
        in
        group.(i) <- g;
        !counts.(g) <- !counts.(g) + 1;
        if e.tid > !max_tid then max_tid := e.tid
      end)
    events;
  let start = Array.make (!groups + 1) 0 in
  for g = 0 to !groups - 1 do
    start.(g + 1) <- start.(g) + !counts.(g)
  done;
  let fill = Array.sub start 0 !groups in
  let slots = Array.make start.(!groups) 0 in
  Array.iteri
    (fun i g ->
      if g >= 0 then begin
        let p = fill.(g) in
        slots.(p) <- slot i events.(i).tid;
        fill.(g) <- p + 1
      end)
    group;
  (* [group] is spent: its first words take the keys *)
  let keys = group in
  Array.iteri (fun p s -> keys.(p) <- key events.(s lsr tid_bits)) slots;
  let gs =
    {
      stream = events;
      slots;
      keys;
      last = Array.make (!max_tid + 1) min_int;
      begins = Array.make (!max_tid + 1) 0;
    }
  in
  IntTbl.fold (fun id g acc -> (id, g) :: acc) group_of []
  |> List.sort compare
  |> List.iter (fun (id, g) ->
         verify_object ~max_thin ~cjm ~require_unlocked_end push gs id start.(g) start.(g + 1));
  !groups

(* ------------------------------------------------------------------ *)
(* Entry points.                                                      *)
(* ------------------------------------------------------------------ *)

let check ?mode:_ ?(protocol = Thin_lock) ?count_width ?(require_unlocked_end = true)
    (d : Sink.drained) =
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
  let objects = run ~max_thin ~cjm ~require_unlocked_end d push in
  let key v = if v.seq < 0 then max_int else v.seq in
  let violations =
    List.stable_sort (fun a b -> compare (key a) (key b)) (List.rev !violations)
  in
  { events = Array.length d.Sink.events; objects; violations }

let ok r = r.violations = []
let exit_code r = if ok r then 0 else 1
let find r cls = List.find_opt (fun v -> v.cls = cls) r.violations

let pp ppf (r : report) =
  if ok r then
    Format.fprintf ppf "clean: %d events over %d objects verified" r.events r.objects
  else begin
    Format.fprintf ppf "%d violation(s) in %d events over %d objects:"
      (List.length r.violations) r.events r.objects;
    List.iter
      (fun v ->
        let seq = if v.seq < 0 then "end" else string_of_int v.seq in
        Format.fprintf ppf "@\n  [%s] seq %s tid %d obj %d: %s"
          (class_name v.cls) seq v.tid v.obj_id v.detail)
      r.violations
  end
