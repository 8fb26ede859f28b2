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
   monitor, with no handshake events at all.  [Monitor] is the owner,
   count and wait automaton alone: every object starts as an unowned
   monitor and stays one.  Each protocol treats the lifecycle kinds of
   the others as malformed. *)
type protocol = Thin_lock | Cjm | Monitor

let protocol_name = function Thin_lock -> "thin-lock" | Cjm -> "cjm" | Monitor -> "monitor"

type report = {
  events : int;
  objects : int;
  violations : violation list;
}

(* ------------------------------------------------------------------ *)
(* The per-object reference automaton.                                *)
(* ------------------------------------------------------------------ *)

(* The lock state of the object under check:

   - [Flat];
   - [Thin]: held thin by [owner], [depth] times (the paper's count
     field stores [depth - 1]);
   - [Inflating]: between an [Inflate_contention]/[Inflate_overflow]
     event and the same thread's confirming [Acquire_fat] — the inflater
     has published the fat word but not yet reported entering the
     monitor; [depth] is carried into the monitor.  [Inflate_wait]
     needs no confirmation: the waiter's next event is its [Wait_op];
   - [Fat]: a live monitor owned by [owner] ([0] = unowned) [depth]
     times.

   The state is one mutable record per object, so a step that breaks
   no rule allocates nothing; a broken rule raises [Broken]. *)
type lstate = Flat | Thin | Inflating | Fat

type ostate = {
  mutable st : lstate;
  mutable owner : int;
  mutable depth : int;
  mutable waiters : int IntMap.t;  (* tid -> depth saved at Wait_op *)
  mutable signals : int;  (* undelivered notify credits *)
  mutable pending_entry : int;
      (* CJM: the contender that materialised the live monitor but has
         not yet reported entering it, or -1.  The creator holds a pin
         from inflation until after its queued acquire, so the monitor
         cannot evaporate while this is set. *)
}

let initial protocol =
  {
    st = (if protocol = Monitor then Fat else Flat);
    owner = 0;
    depth = 0;
    waiters = IntMap.empty;
    signals = 0;
    pending_entry = -1;
  }

let set o st owner depth =
  o.st <- st;
  o.owner <- owner;
  o.depth <- depth

let describe o =
  match o.st with
  | Flat -> "flat"
  | Thin -> Printf.sprintf "thin(owner=%d, depth=%d)" o.owner o.depth
  | Inflating -> Printf.sprintf "inflating(by=%d)" o.owner
  | Fat when o.owner = 0 -> "fat(unowned)"
  | Fat -> Printf.sprintf "fat(owner=%d, depth=%d)" o.owner o.depth

exception Broken of violation_class * string

let err cls detail = raise (Broken (cls, detail))

let not_in protocol what =
  err Stream_malformed (Printf.sprintf "%s event in a %s stream" what (protocol_name protocol))

(* A waiter's internal resumption (reacquire after notify / timeout)
   emits no event, so the automaton resumes a parked thread implicitly
   the first time it acts as owner while the monitor is unowned,
   consuming a notify credit when one is outstanding (a resume without
   a credit is a timed-wait expiry).  [true] when [t] was resumed. *)
let resume o t =
  o.st = Fat && o.owner = 0
  &&
  match IntMap.find_opt t o.waiters with
  | Some saved ->
      set o Fat t saved;
      o.waiters <- IntMap.remove t o.waiters;
      if o.signals > 0 then o.signals <- o.signals - 1;
      true
  | None -> false

(* One event of thread [t] on the object.  [begins.(tid)]: the tid's
   open contended-begin depth on this object. *)
let rec step ~max_thin ~protocol ~begins o t (kind : Event.kind) =
  let mine = o.owner = t in
  match kind with
  | Event.Acquire_fast -> (
      match o.st with
      | Flat -> set o Thin t 1
      | Thin when mine ->
          err Count_error "fast acquire while already holding (expected nested)"
      | Thin | Inflating | Fat ->
          err Ownership_violation (Printf.sprintf "fast acquire of a %s object" (describe o)))
  | Event.Acquire_nested -> (
      match o.st with
      | Thin when mine ->
          if o.depth >= max_thin then
            err Count_error
              (Printf.sprintf "nested acquire past depth %d without overflow inflation"
                 max_thin)
          else o.depth <- o.depth + 1
      | Flat -> err Count_error "nested acquire with no thin lock held"
      | Thin -> err Ownership_violation "nested acquire of another thread's thin lock"
      | Inflating | Fat ->
          err Ownership_violation "thin nested acquire on an inflated object")
  | Event.Acquire_fat | Event.Acquire_fat_queued -> (
      (* The creating contender's first fat acquire discharges its
         pending-entry obligation (see [pending_entry]). *)
      if o.pending_entry = t then o.pending_entry <- -1;
      match o.st with
      | Inflating when mine && kind = Event.Acquire_fat ->
          o.st <- Fat (* confirming entry, depth carried *)
      | Inflating -> err Ownership_violation "fat acquire on an object mid-inflation"
      | Fat when o.owner = 0 ->
          if resume o t then o.depth <- o.depth + 1 else set o Fat t 1
      | Fat when mine ->
          if kind = Event.Acquire_fat_queued then
            err Ownership_violation "queued fat acquire while already owning the monitor"
          else o.depth <- o.depth + 1
      | Fat -> err Ownership_violation "fat acquire while another thread owns the monitor"
      | Flat | Thin -> err Stale_handle "fat acquire with no live monitor")
  | Event.Release_fast -> (
      match o.st with
      | Thin when mine && o.depth = 1 -> o.st <- Flat
      | Thin when mine ->
          err Count_error
            (Printf.sprintf "fast release at depth %d (expected nested)" o.depth)
      | Flat -> err Unlock_without_lock "release of an unlocked object"
      | Thin -> err Ownership_violation "fast release of another thread's thin lock"
      | Inflating | Fat -> err Ownership_violation "thin release of an inflated object")
  | Event.Release_nested -> (
      match o.st with
      | Thin when mine && o.depth >= 2 -> o.depth <- o.depth - 1
      | Thin when mine -> err Count_error "nested release at depth 1 (expected fast)"
      | Flat -> err Unlock_without_lock "release of an unlocked object"
      | Thin -> err Ownership_violation "nested release of another thread's thin lock"
      | Inflating | Fat -> err Ownership_violation "thin release of an inflated object")
  | Event.Release_fat -> (
      match o.st with
      | Fat when mine -> if o.depth > 1 then o.depth <- o.depth - 1 else set o Fat 0 0
      | Fat when o.owner = 0 ->
          if resume o t then step ~max_thin ~protocol ~begins o t kind
          else err Unlock_without_lock "fat release of an unowned monitor"
      | Fat -> err Ownership_violation "fat release by a non-owner"
      | Inflating -> err Ownership_violation "fat release on an object mid-inflation"
      | Flat -> err Unlock_without_lock "release of an unlocked object"
      | Thin -> err Stale_handle "fat release on a thin-locked object")
  | Event.Inflate_contention -> (
      if protocol <> Thin_lock then not_in protocol "thin-lock inflation";
      match o.st with
      | Flat -> set o Inflating t 1
      | Thin ->
          err Ownership_violation
            "contention inflation while the thin lock is held (inflater must seize the \
             unlocked word first)"
      | Inflating | Fat -> err Reinflation_of_retired "inflation of an already-inflated object")
  | Event.Inflate_overflow -> (
      if protocol <> Thin_lock then not_in protocol "thin-lock inflation";
      match o.st with
      | Thin when mine -> set o Inflating t (o.depth + 1)
      | Thin -> err Ownership_violation "overflow inflation of another thread's thin lock"
      | Flat -> err Count_error "overflow inflation with no held thin lock"
      | Inflating | Fat -> err Reinflation_of_retired "inflation of an already-inflated object")
  | Event.Inflate_wait -> (
      if protocol <> Thin_lock then not_in protocol "thin-lock inflation";
      match o.st with
      | Thin when mine -> o.st <- Fat
      | Thin -> err Ownership_violation "wait inflation of another thread's thin lock"
      | Flat -> err Ownership_violation "wait inflation with no lock held"
      | Inflating | Fat -> err Reinflation_of_retired "inflation of an already-inflated object")
  | Event.Wait_op -> (
      match o.st with
      | Fat when mine ->
          o.waiters <- IntMap.add t o.depth o.waiters;
          set o Fat 0 0
      | Fat when o.owner = 0 ->
          if resume o t then step ~max_thin ~protocol ~begins o t kind
          else err Ownership_violation "wait by a thread not owning the monitor"
      | Fat -> err Ownership_violation "wait by a non-owner"
      | Inflating -> err Ownership_violation "wait on an object mid-inflation"
      | Flat | Thin -> err Stale_handle "wait outside a fat monitor")
  | Event.Notify_op | Event.Notify_all_op -> (
      match o.st with
      | Thin when mine -> () (* no waiters possible on a thin lock *)
      | Fat when mine ->
          let w = IntMap.cardinal o.waiters in
          o.signals <- (if kind = Event.Notify_all_op then w else min w (o.signals + 1))
      | Fat when o.owner = 0 ->
          if resume o t then step ~max_thin ~protocol ~begins o t kind
          else err Ownership_violation "notify by a thread not owning the monitor"
      | Fat -> err Ownership_violation "notify by a non-owner"
      | Inflating -> err Ownership_violation "notify on an object mid-inflation"
      | Flat | Thin -> err Ownership_violation "notify without holding the lock")
  | Event.Deflate_quiescent | Event.Deflate_concurrent -> (
      if protocol <> Thin_lock then not_in protocol "thin-lock deflation";
      match o.st with
      | Fat when o.owner = 0 && IntMap.is_empty o.waiters ->
          o.st <- Flat;
          o.signals <- 0
      | Fat when o.owner = 0 ->
          err Deflation_without_handshake "deflation of a monitor with parked waiters"
      | Fat -> err Deflation_without_handshake "deflation of an owned monitor"
      | Inflating -> err Deflation_without_handshake "deflation of a monitor mid-inflation"
      | Flat | Thin ->
          err Deflation_without_handshake "deflation of an object with no live monitor")
  | Event.Deflate_aborted -> (
      if protocol <> Thin_lock then not_in protocol "thin-lock deflation";
      match o.st with
      | Fat | Inflating -> ()
      | Flat | Thin -> err Stale_handle "aborted deflation handshake with no live monitor")
  | Event.Cjm_monitor_create -> (
      if protocol <> Cjm then not_in protocol "cjm lifecycle";
      match o.st with
      (* Covers both creation paths: a contender materialising a
         monitor on behalf of the inline owner (t <> owner), and the
         owner itself inflating for a wait (t = owner).  Either way the
         inline depth transfers into the monitor.  A creating
         contender still owes its entry (it is pinned until then). *)
      | Thin ->
          o.st <- Fat;
          o.pending_entry <- (if mine then -1 else t)
      | Flat -> err Stale_handle "monitor created for an unheld object"
      | Inflating | Fat ->
          err Reinflation_of_retired "monitor created while one is already live")
  | Event.Cjm_monitor_evaporate -> (
      if protocol <> Cjm then not_in protocol "cjm lifecycle";
      match o.st with
      | Fat when o.owner = 0 && o.pending_entry >= 0 ->
          err Deflation_without_handshake
            "evaporation before the creating contender entered (it still holds its pin)"
      | Fat when o.owner = 0 && IntMap.is_empty o.waiters ->
          o.st <- Flat;
          o.signals <- 0
      | Fat when o.owner = 0 ->
          err Deflation_without_handshake "evaporation of a monitor with parked waiters"
      | Fat -> err Deflation_without_handshake "evaporation of an owned monitor"
      | Inflating -> err Deflation_without_handshake "evaporation of a monitor mid-inflation"
      | Flat | Thin -> err Stale_handle "evaporation of an object with no live monitor")
  | Event.Contended_begin -> begins.(t) <- begins.(t) + 1
  | Event.Contended_end ->
      if begins.(t) > 0 then begins.(t) <- begins.(t) - 1
      else err Stream_malformed "contended-end without a matching contended-begin"
  | Event.Reaper_scan | Event.Quiescence | Event.Tid_overflow | Event.Policy_switch -> ()

(* ------------------------------------------------------------------ *)
(* Routing and structural checks.                                     *)
(* ------------------------------------------------------------------ *)

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

let thread_path_mask =
  List.fold_left
    (fun m k -> if is_thread_path k then m lor (1 lsl Event.kind_to_int k) else m)
    0 Event.all_kinds

let kind_mask = (1 lsl Event.kind_bits) - 1
let[@inline] bit mask k = (mask lsr k) land 1 = 1

(* No sink issues a tid outside [0, Sink.max_tids): a stream that
   carries one was edited or forged. *)
let[@inline] tid_in_range tid = tid >= 0 && tid < Sink.max_tids

(* Events whose [arg] is an object id drive the automaton — the same
   predicate the sink's 1-in-N object sampling keys on, so a sampled
   stream keeps whole per-object histories.  A thread-path event on tid
   0 is excluded (owner 0 doubles as "unowned" there), and so is an
   event whose tid no sink issues; the structural pass has already
   flagged the stream.  [k] is a kind int. *)
let[@inline] routable k tid =
  bit Event.object_kind_mask k && tid_in_range tid && not (tid = 0 && bit thread_path_mask k)

let malformed (d : Sink.drained) i obj_id detail =
  { cls = Stream_malformed; seq = Sink.seq d i; tid = Sink.tid d i; obj_id; detail }

(* An empty [seqs] column is the dense 0 .. n-1, which passes every
   check here: they all walk [seqs]. *)
let seq_checks (d : Sink.drained) push =
  let seqs = d.Sink.seqs in
  let n = Array.length seqs in
  let monotone = ref true in
  (try
     for i = 1 to n - 1 do
       if seqs.(i) <= seqs.(i - 1) then begin
         monotone := false;
         push
           (malformed d i (-1) "seq not strictly increasing (duplicated or reordered event)");
         raise Exit
       end
     done
   with Exit -> ());
  (* A drop-free drain is dense from 0: every ticket issued was
     recorded, so a gap means an event went missing after the fact. *)
  if !monotone && d.Sink.dropped = [] && n > 0 then begin
    if seqs.(0) <> 0 then
      push (malformed d 0 (-1) "stream does not start at seq 0 yet records no drops")
    else if seqs.(n - 1) <> n - 1 then
      push (malformed d (n - 1) (-1) "seq gap with no recorded drops (event missing)")
  end
  else if !monotone && d.Sink.dropped <> [] && n > 0 then begin
    (* Drops excuse holes — but only as many as were honestly counted.
       (The sink's own drains renumber densely, so any holes here come
       from external tools editing a dump.) *)
    let total = List.fold_left (fun acc (_, k) -> acc + k) 0 d.Sink.dropped in
    let last = seqs.(n - 1) in
    if seqs.(0) < 0 then push (malformed d 0 (-1) "negative seq")
    else if last + 1 - n > total then
      push
        (malformed d (n - 1) (-1)
           (Printf.sprintf "%d seq holes but only %d recorded drops" (last + 1 - n) total))
  end

let structural (d : Sink.drained) push =
  seq_checks d push;
  (* the first event of each kind of misattribution *)
  let out_of_range = ref false and system_thread_path = ref false in
  let events = d.Sink.events in
  for i = 0 to Array.length events - 1 do
    let e = events.(i) in
    let tid = e asr Event.kind_bits in
    if (not !out_of_range) && not (tid_in_range tid) then begin
      out_of_range := true;
      push
        (malformed d i (-1)
           (Printf.sprintf "tid %d outside the sink's range [0, %d)" tid Sink.max_tids))
    end
    else if (not !system_thread_path) && tid = 0 && bit thread_path_mask (e land kind_mask)
    then begin
      system_thread_path := true;
      push
        (malformed d i (Sink.arg d i)
           (Printf.sprintf "thread-path event %s on the system stream (tid 0)"
              (Event.kind_name (Sink.kind d i))))
    end
  done

let finish_object ~require_unlocked_end push id o =
  let at_end tid detail = push { cls = Stream_malformed; seq = -1; tid; obj_id = id; detail } in
  (if require_unlocked_end then
     match o.st with
     | Thin ->
         at_end o.owner
           (Printf.sprintf "object still thin-held (owner %d, depth %d) at end of stream"
              o.owner o.depth)
     | Inflating -> at_end o.owner "object still mid-inflation at end of stream"
     | Fat when o.owner <> 0 ->
         at_end o.owner
           (Printf.sprintf "monitor still owned (owner %d, depth %d) at end of stream" o.owner
              o.depth)
     | Flat | Fat -> ());
  if o.signals > 0 && not (IntMap.is_empty o.waiters) then begin
    let tid, _ = IntMap.min_binding o.waiters in
    push
      {
        cls = Lost_wakeup;
        seq = -1;
        tid;
        obj_id = id;
        detail =
          Printf.sprintf "%d waiter(s) never exited wait despite %d undelivered notification(s)"
            (IntMap.cardinal o.waiters) o.signals;
      }
  end

(* ------------------------------------------------------------------ *)
(* The engine: one object at a time, in the order its holders stamped. *)
(* ------------------------------------------------------------------ *)

(* The object under check: [slots.(0 .. n - 1)] holds its routable
   events, first in seq order and, once sorted, in position order.  A
   slot packs the event's index into the stream's columns, its kind and
   its tid (routable tids are below [Sink.max_tids]); [keys.(p)] is the
   key of slot [p]'s event and moves with it.  Both arrays are scratch,
   as long as the largest object's history, and checking an object
   reads only them: the columns are consulted again only to report a
   violation.  [last] ([backwards]'s last key per tid, [min_int] when
   unseen) and [begins] ([step]'s open contended-begin depth per tid)
   are indexed by tid and cover the object under check only: its pass
   resets its own tids. *)
type groups = {
  stream : Sink.drained;
  slots : int array;
  keys : int array;
  last : int array;
  begins : int array;
}

let tid_bits = 15
let () = assert (Sink.max_tids = 1 lsl tid_bits)
let index_shift = tid_bits + Event.kind_bits
let[@inline] slot i k tid = (i lsl index_shift) lor (k lsl tid_bits) lor tid
let[@inline] slot_tid g p = g.slots.(p) land (Sink.max_tids - 1)
let[@inline] slot_kind g p = Event.kind_of_int ((g.slots.(p) lsr tid_bits) land kind_mask)
let[@inline] slot_index g p = g.slots.(p) lsr index_shift

(* Position of an event in its object's history: holder-stamped events
   at their ordinal, an observation just after the holder event whose
   ordinal it read.  Ties (observations of the same ordinal) keep seq
   order, which is each thread's program order.  A key is even exactly
   when its event is holder-stamped. *)
let[@inline] key ord k = (2 * ord) + if bit Event.holder_kind_mask k then 0 else 1

(* Are one object's events, in seq order, already in position order?
   So for a stream from one OS thread (plus the system stream, whose
   tickets sort after their causes).  Then no thread can go backwards
   and there is nothing to sort. *)
let in_order g n =
  let keys = g.keys in
  let rec go i = i >= n || (keys.(i - 1) <= keys.(i) && go (i + 1)) in
  go 1

(* The stamps must be consistent before the automaton may trust their
   order.  [backwards] walks one object's events in seq order: a
   thread's events keep its program order, so its positions never
   decrease.  [duplicate] walks them sorted: a holder-stamped ordinal
   is taken once.  ([min_int] as
   "not seen" needs no test: no key is below it.) *)
let backwards g id n =
  let last = g.last and keys = g.keys in
  let rec go i =
    if i >= n then None
    else
      let t = slot_tid g i and k = keys.(i) in
      let k' = last.(t) in
      if k' > k then
        let e = slot_index g i in
        Some
          (malformed g.stream e id
             (Printf.sprintf "tid %d's ordinals go backwards (ordinal %d after %d)" t
                (Sink.ord g.stream e) (k' / 2)))
      else begin
        last.(t) <- k;
        go (i + 1)
      end
  in
  go 0

(* Stable merge sort of [slots.(0 .. n - 1)] by [keys], the two arrays
   moved together; [tk]/[ts] hold the left run of a merge. *)
let sort_by_key g n =
  let keys = g.keys and slots = g.slots in
  let tk = Array.make ((n / 2) + 1) 0 and ts = Array.make ((n / 2) + 1) 0 in
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
  sort 0 n

let duplicate g id n =
  let keys = g.keys in
  let rec go i =
    if i >= n then None
    else if keys.(i) = keys.(i - 1) && keys.(i) land 1 = 0 then
      let a = slot_index g (i - 1) and b = slot_index g i in
      let ord = Sink.ord g.stream b in
      if Sink.ord g.stream a = ord then
        Some
          (malformed g.stream b id
             (Printf.sprintf "holder ordinal %d taken twice (also by seq %d)" ord
                (Sink.seq g.stream a)))
      else go (i + 1)
    else go (i + 1)
  in
  go 1

(* Object [id]'s routable events are [bucketed.(lo .. hi - 1)]: copy
   them into the scratch [slots], gather their keys, and check them
   there. *)
let verify_object ~max_thin ~protocol ~require_unlocked_end push g id bucketed lo hi =
  let n = hi - lo and ords = g.stream.Sink.ords in
  Array.blit bucketed lo g.slots 0 n;
  for p = 0 to n - 1 do
    let s = g.slots.(p) in
    g.keys.(p) <- key ords.(s lsr index_shift) ((s lsr tid_bits) land kind_mask)
  done;
  let sorted = in_order g n in
  (match if sorted then None else backwards g id n with
  | Some v -> push v
  | None -> (
      if not sorted then sort_by_key g n;
      match duplicate g id n with
      | Some v -> push v
      | None ->
          let o = initial protocol in
          let rec go i =
            if i >= n then finish_object ~require_unlocked_end push id o
            else
              match step ~max_thin ~protocol ~begins:g.begins o (slot_tid g i) (slot_kind g i) with
              | () -> go (i + 1)
              | exception Broken (cls, detail) ->
                  let e = slot_index g i in
                  push { cls; seq = Sink.seq g.stream e; tid = slot_tid g i; obj_id = id; detail }
          in
          go 0));
  (* hand the tid tables on clean *)
  for i = 0 to n - 1 do
    let t = slot_tid g i in
    g.last.(t) <- min_int;
    g.begins.(t) <- 0
  done

let seen_mask = 4095

(* Bucket the routable events by object with a counting sort (each
   bucket keeps seq order), then verify the objects in id order, each
   over its own range.  Two passes read the columns in order: one
   counts each object's events, one places them; an object's keys are
   gathered from [ords] when it is checked.  A direct-mapped cache of
   [group_of] by the id's low bits resolves a storm's thousand hot
   objects without hashing; slot [s] starts out holding [s + 1], an id
   that cannot map to it. *)
let run ~max_thin ~protocol ~require_unlocked_end (d : Sink.drained) push =
  let events = d.Sink.events and args = d.Sink.args in
  let n = Array.length events in
  let group_of = IntTbl.create 64 in
  let seen_id = Array.init (seen_mask + 1) (fun s -> s + 1) in
  let seen_group = Array.make (seen_mask + 1) 0 in
  let counts = ref (Array.make 64 0) in
  let groups = ref 0 in
  let group id =
    let slot = id land seen_mask in
    if seen_id.(slot) = id then seen_group.(slot)
    else begin
      let g =
        match IntTbl.find group_of id with
        | g -> g
        | exception Not_found ->
            let g = !groups in
            IntTbl.add group_of id g;
            incr groups;
            if g >= Array.length !counts then begin
              let bigger = Array.make (2 * g) 0 in
              Array.blit !counts 0 bigger 0 g;
              counts := bigger
            end;
            g
      in
      seen_id.(slot) <- id;
      seen_group.(slot) <- g;
      g
    end
  in
  let max_tid = ref 0 in
  for i = 0 to n - 1 do
    let e = events.(i) in
    let tid = e asr Event.kind_bits in
    if routable (e land kind_mask) tid then begin
      let g = group args.(i) in
      !counts.(g) <- !counts.(g) + 1;
      if tid > !max_tid then max_tid := tid
    end
  done;
  let start = Array.make (!groups + 1) 0 and widest = ref 0 in
  for g = 0 to !groups - 1 do
    start.(g + 1) <- start.(g) + !counts.(g);
    widest := max !widest !counts.(g)
  done;
  let fill = Array.sub start 0 !groups in
  let bucketed = Array.make start.(!groups) 0 in
  for i = 0 to n - 1 do
    let e = events.(i) in
    let k = e land kind_mask and tid = e asr Event.kind_bits in
    if routable k tid then begin
      let g = group args.(i) in
      bucketed.(fill.(g)) <- slot i k tid;
      fill.(g) <- fill.(g) + 1
    end
  done;
  let gs =
    {
      stream = d;
      slots = Array.make !widest 0;
      keys = Array.make !widest 0;
      last = Array.make (!max_tid + 1) min_int;
      begins = Array.make (!max_tid + 1) 0;
    }
  in
  IntTbl.fold (fun id g acc -> (id, g) :: acc) group_of []
  |> List.sort compare
  |> List.iter (fun (id, g) ->
         verify_object ~max_thin ~protocol ~require_unlocked_end push gs id bucketed start.(g)
           start.(g + 1));
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
  let violations = ref [] in
  let push v = violations := v :: !violations in
  structural d push;
  let objects = run ~max_thin ~protocol ~require_unlocked_end d push in
  let key v = if v.seq < 0 then max_int else v.seq in
  let violations =
    List.stable_sort (fun a b -> compare (key a) (key b)) (List.rev !violations)
  in
  { events = Sink.length d; objects; violations }

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
