module Prng = Tl_util.Prng
module Event = Tl_events.Event
module Sink = Tl_events.Sink
module Oracle = Tl_events.Oracle

type spec = { threads : int; objects : int; steps : int; seed : int }

type gen = { events : Event.t array; wait_exits : int list; queued_aborts : int list }

(* Dense seqs in array order, and every ordinal stamped as the sink's
   holders would have stamped it had the array been the order in which
   the objects' states changed: a holder-stamped kind takes its
   object's next ordinal, an observation carries the current one. *)
let stamp arr =
  let ords = Hashtbl.create 16 in
  Array.mapi
    (fun seq (e : Event.t) ->
      if not (Event.carries_object e.Event.kind) then { e with Event.seq; ord = 0 }
      else
        let cur = Option.value ~default:0 (Hashtbl.find_opt ords e.Event.arg) in
        let ord = if Event.holder_stamped e.Event.kind then cur + 1 else cur in
        Hashtbl.replace ords e.Event.arg ord;
        { e with Event.seq; ord })
    arr

(* ------------------------------------------------------------------ *)
(* Well-formed stream generation.                                     *)
(*                                                                    *)
(* A little scheduler over model threads and objects: each round one  *)
(* thread takes a protocol-legal action given its status (free,       *)
(* spinning on a thin lock, queued on a fat monitor, waiting) and the *)
(* object's state, emitting exactly the event subsequences the real   *)
(* instrumentation emits for that path.  A wind-down phase then       *)
(* notifies every waiter and releases everything, so the stream ends  *)
(* with all objects unlocked — the oracle's default end-of-stream     *)
(* requirement.                                                       *)
(*                                                                    *)
(* Two discipline rules keep every schedule completable: a thread may *)
(* block (spin, queue, or wait) only while at least one other thread  *)
(* is unblocked, and only while holding nothing beyond the object it  *)
(* waits on — so blocked threads never freeze a lock someone else     *)
(* needs, and the wind-down always has a free thread left to release  *)
(* and notify.                                                        *)
(* ------------------------------------------------------------------ *)

type ostate = OFlat | OThin of int * int | OFat of int * int
  (* OThin (owner, depth) / OFat (owner = 0 for unowned, depth) *)

type obj = {
  oid : int;
  mutable st : ostate;
  mutable waiters : int list;  (* waiting tids; saved depth is always 1 *)
  mutable signals : int;
}

type tstate = TFree | TSpin of int | TQueue of int | TWait of int

let generate spec =
  if spec.threads < 1 || spec.objects < 1 || spec.steps < 0 then
    invalid_arg "Stream_gen.generate";
  let prng = Prng.create spec.seed in
  let objs =
    Array.init spec.objects (fun i ->
        { oid = i + 1; st = OFlat; waiters = []; signals = 0 })
  in
  let threads = Array.make (spec.threads + 1) TFree in  (* index 0 unused *)
  (* set when a waiter resumes (invisibly, as in the real monitor);
     cleared by the thread's next action on that object.  A release
     that is the thread's first post-resume event on the object is its
     wait {e exit} — recorded in [wait_exits] for the lost-wakeup
     mutation. *)
  let just_resumed = Array.make (spec.threads + 1) None in
  let events = ref [] in
  let count = ref 0 in
  let wait_exits = ref [] in
  let queued_aborts = ref [] in
  let quiesced = ref 0 in
  let emit tid kind arg =
    events := { Event.seq = !count; tid; kind; arg; ord = 0 } :: !events;
    incr count
  in
  let free_threads_other_than t =
    let n = ref 0 in
    for u = 1 to spec.threads do
      if u <> t && threads.(u) = TFree then incr n
    done;
    !n
  in
  let queued_on oi =
    let n = ref 0 in
    for u = 1 to spec.threads do
      match threads.(u) with TQueue j when j = oi -> incr n | _ -> ()
    done;
    !n
  in
  let owned_by t =
    let acc = ref [] in
    Array.iteri
      (fun i o ->
        match o.st with
        | OThin (owner, _) | OFat (owner, _) when owner = t -> acc := i :: !acc
        | _ -> ())
      objs;
    List.rev !acc
  in
  let enter_spun_lock t oi =
    (* a spinner or queued thread completing its acquisition *)
    let o = objs.(oi) in
    (match (threads.(t), o.st) with
    | TSpin _, OFlat ->
        (* seize the unlocked word, inflate for contention, confirm *)
        emit t Event.Inflate_contention o.oid;
        emit t Event.Acquire_fat o.oid;
        emit t Event.Contended_end o.oid;
        o.st <- OFat (t, 1)
    | TSpin _, OFat (0, _) ->
        (* the spin path's try_acquire on a now-idle monitor *)
        emit t Event.Acquire_fat o.oid;
        emit t Event.Contended_end o.oid;
        o.st <- OFat (t, 1)
    | TQueue _, OFat (0, _) ->
        emit t Event.Contended_end o.oid;
        emit t Event.Acquire_fat_queued o.oid;
        o.st <- OFat (t, 1)
    | _ -> assert false);
    threads.(t) <- TFree
  in
  let release_once t oi =
    let o = objs.(oi) in
    match o.st with
    | OThin (owner, 1) when owner = t ->
        emit t Event.Release_fast o.oid;
        o.st <- OFlat
    | OThin (owner, d) when owner = t ->
        emit t Event.Release_nested o.oid;
        o.st <- OThin (t, d - 1)
    | OFat (owner, d) when owner = t ->
        if d = 1 && just_resumed.(t) = Some oi then
          wait_exits := !count :: !wait_exits;
        if just_resumed.(t) = Some oi then just_resumed.(t) <- None;
        emit t Event.Release_fat o.oid;
        o.st <- (if d > 1 then OFat (t, d - 1) else OFat (0, 0))
    | _ -> assert false
  in
  let resume_waiter t oi =
    (* invisible in the stream, like the real monitor's re-entry after
       a notify; the oracle resumes the thread at its next owner
       event *)
    let o = objs.(oi) in
    (match o.st with OFat (0, _) -> () | _ -> assert false);
    o.waiters <- List.filter (fun u -> u <> t) o.waiters;
    o.signals <- max 0 (o.signals - 1);
    o.st <- OFat (t, 1);
    threads.(t) <- TFree;
    just_resumed.(t) <- Some oi
  in
  (* one action for a free thread on one object *)
  let free_action t oi =
    let o = objs.(oi) in
    let clear_resume () =
      if just_resumed.(t) = Some oi then just_resumed.(t) <- None
    in
    let may_block () = free_threads_other_than t >= 1 && owned_by t = [] in
    let may_wait () = free_threads_other_than t >= 1 && owned_by t = [ oi ] in
    match o.st with
    | OFlat ->
        emit t Event.Acquire_fast o.oid;
        o.st <- OThin (t, 1)
    | OThin (owner, d) when owner = t -> (
        match Prng.int prng 8 with
        | 0 | 1 when d < 4 ->
            emit t Event.Acquire_nested o.oid;
            o.st <- OThin (t, d + 1)
        | 2 ->
            (* overflow inflation: inflate + confirming acquire *)
            emit t Event.Inflate_overflow o.oid;
            emit t Event.Acquire_fat o.oid;
            o.st <- OFat (t, d + 1)
        | 3 when d = 1 && may_wait () ->
            emit t Event.Inflate_wait o.oid;
            emit t Event.Wait_op o.oid;
            o.st <- OFat (0, 0);
            o.waiters <- t :: o.waiters;
            threads.(t) <- TWait oi
        | 4 -> emit t Event.Notify_op o.oid  (* no-op notify on a thin lock *)
        | _ -> release_once t oi)
    | OThin (_, _) ->
        if may_block () then begin
          emit t Event.Contended_begin o.oid;
          threads.(t) <- TSpin oi
        end
    | OFat (0, _) ->
        emit t Event.Acquire_fat o.oid;
        o.st <- OFat (t, 1);
        clear_resume ()
    | OFat (owner, d) when owner = t -> (
        match Prng.int prng 8 with
        | 0 when d < 4 ->
            emit t Event.Acquire_fat o.oid;
            o.st <- OFat (t, d + 1);
            clear_resume ()
        | 1 when d = 1 && may_wait () ->
            emit t Event.Wait_op o.oid;
            o.st <- OFat (0, 0);
            o.waiters <- t :: o.waiters;
            threads.(t) <- TWait oi;
            clear_resume ()
        | 2 ->
            emit t Event.Notify_op o.oid;
            o.signals <- min (List.length o.waiters) (o.signals + 1);
            clear_resume ()
        | 3 ->
            emit t Event.Notify_all_op o.oid;
            o.signals <- List.length o.waiters;
            clear_resume ()
        | _ -> release_once t oi)
    | OFat (_, _) ->
        if may_block () then begin
          emit t Event.Contended_begin o.oid;
          threads.(t) <- TQueue oi
        end
  in
  let system_action () =
    (* deflater / reaper / quiescence announcements *)
    let idle = ref [] in
    let busy_fat = ref [] in
    Array.iteri
      (fun i o ->
        match o.st with
        | OFat (0, _) when o.waiters = [] && queued_on i = 0 -> idle := o :: !idle
        | OFat (_, _) -> busy_fat := o :: !busy_fat
        | _ -> ())
      objs;
    let idle = !idle and busy_fat = !busy_fat in
    match Prng.int prng 4 with
    | 0 when idle <> [] ->
        let o = List.nth idle (Prng.int prng (List.length idle)) in
        let kind =
          if Prng.bool prng then Event.Deflate_quiescent
          else Event.Deflate_concurrent
        in
        emit 0 kind o.oid;
        o.st <- OFlat;
        o.signals <- 0
    | 1 when busy_fat <> [] ->
        let o = List.nth busy_fat (Prng.int prng (List.length busy_fat)) in
        (* An unowned, waiter-free monitor is busy only because an
           entrant is queued on it, and the stream does not show that:
           see [queued_aborts]. *)
        (match o.st with
        | OFat (0, _) when o.waiters = [] -> queued_aborts := !count :: !queued_aborts
        | _ -> ());
        emit 0 Event.Deflate_aborted o.oid
    | 2 -> emit 0 Event.Reaper_scan (Prng.int prng 3)
    | _ ->
        incr quiesced;
        emit (1 + Prng.int prng spec.threads) Event.Quiescence !quiesced
  in
  let blocked_action t =
    match threads.(t) with
    | TFree -> assert false
    | TSpin oi -> (
        let o = objs.(oi) in
        match o.st with
        | OFlat | OFat (0, _) -> enter_spun_lock t oi
        | _ -> () (* keep spinning *))
    | TQueue oi -> (
        let o = objs.(oi) in
        match o.st with OFat (0, _) -> enter_spun_lock t oi | _ -> ())
    | TWait oi -> (
        let o = objs.(oi) in
        match o.st with
        | OFat (0, _) when o.signals > 0 && List.mem t o.waiters ->
            resume_waiter t oi
        | _ -> ())
  in
  (* main phase *)
  for _ = 1 to spec.steps do
    if Prng.int prng 16 = 0 then system_action ()
    else begin
      let t = 1 + Prng.int prng spec.threads in
      match threads.(t) with
      | TFree -> free_action t (Prng.int prng spec.objects)
      | _ -> blocked_action t
    end
  done;
  (* wind-down: complete every blocked thread, wake every waiter,
     release everything.  Blocked threads hold nothing (see the
     discipline above), so the free threads' releases always make
     progress. *)
  let settled () =
    let clear = ref true in
    for t = 1 to spec.threads do
      if threads.(t) <> TFree || owned_by t <> [] then clear := false
    done;
    !clear
    && Array.for_all
         (fun o ->
           match o.st with
           | OFlat | OFat (0, _) -> o.waiters = []
           | _ -> false)
         objs
  in
  let rounds = ref 0 in
  while not (settled ()) do
    incr rounds;
    if !rounds > 64 * ((spec.threads * spec.objects) + spec.steps + 4) then
      failwith "Stream_gen.generate: wind-down did not settle";
    (* free threads drop everything they hold *)
    for t = 1 to spec.threads do
      if threads.(t) = TFree then
        List.iter (fun oi -> release_once t oi) (owned_by t)
    done;
    (* one free thread notifies any waiters still short of a signal *)
    (match
       List.find_opt
         (fun t -> threads.(t) = TFree)
         (List.init spec.threads (fun i -> i + 1))
     with
    | None -> ()
    | Some t ->
        Array.iter
          (fun o ->
            if o.waiters <> [] && o.signals < List.length o.waiters then
              match o.st with
              | OFat (0, _) ->
                  emit t Event.Acquire_fat o.oid;
                  emit t Event.Notify_all_op o.oid;
                  o.signals <- List.length o.waiters;
                  emit t Event.Release_fat o.oid
              | _ -> ())
          objs);
    (* unblock spinners, queued entrants and signalled waiters *)
    for t = 1 to spec.threads do
      if threads.(t) <> TFree then blocked_action t
    done
  done;
  {
    events = stamp (Array.of_list (List.rev !events));
    wait_exits = List.rev !wait_exits;
    queued_aborts = List.rev !queued_aborts;
  }

let drained g = Sink.of_events g.events
let events_of d = Array.init (Sink.length d) (Sink.event d)

(* ------------------------------------------------------------------ *)
(* Mutation layer.                                                    *)
(* ------------------------------------------------------------------ *)

type mutation = {
  m_name : string;
  m_expected : Oracle.violation_class;
  m_stream : Sink.drained;
}

let is_object_event = function
  | Event.Reaper_scan | Event.Quiescence -> false
  | _ -> true

(* The mutated order is the order the automaton must judge. *)
let renumber = stamp

let drop arr i =
  Array.init (Array.length arr - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

let insert_after arr i e =
  Array.init
    (Array.length arr + 1)
    (fun j -> if j <= i then arr.(j) else if j = i + 1 then e else arr.(j - 1))

let swap arr i j =
  let a = Array.copy arr in
  let tmp = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- tmp;
  a

let retag arr i kind =
  let a = Array.copy arr in
  a.(i) <- { a.(i) with Event.kind };
  a

let mutate ~seed g =
  let arr = g.events in
  let n = Array.length arr in
  let prng = Prng.create seed in
  (* index of the next event on the same object, if any *)
  let next_on_obj i =
    let e = arr.(i) in
    let rec go j =
      if j >= n then None
      else if is_object_event arr.(j).Event.kind && arr.(j).Event.arg = e.Event.arg
      then Some j
      else go (j + 1)
    in
    go (i + 1)
  in
  let stream a = Sink.of_events a in
  let candidates = ref [] in
  let add name expected make =
    candidates := (name, expected, make) :: !candidates
  in
  for i = 0 to n - 1 do
    let e = arr.(i) in
    (match e.Event.kind with
    | Event.Acquire_fast -> (
        add "dup-acquire-fast" Oracle.Count_error (fun () ->
            renumber (insert_after arr i e));
        add "retag-acquire-fast-as-fat" Oracle.Stale_handle (fun () ->
            renumber (retag arr i Event.Acquire_fat));
        match next_on_obj i with
        | Some j when arr.(j).Event.kind = Event.Release_fast ->
            add "drop-acquire-fast" Oracle.Unlock_without_lock (fun () ->
                renumber (drop arr i));
            add "reorder-acquire-release" Oracle.Unlock_without_lock (fun () ->
                renumber (swap arr i j))
        | _ -> ())
    | Event.Release_fast -> (
        add "dup-release-fast" Oracle.Unlock_without_lock (fun () ->
            renumber (insert_after arr i e));
        add "retag-release-fast-as-nested" Oracle.Count_error (fun () ->
            renumber (retag arr i Event.Release_nested));
        match next_on_obj i with
        | Some j when arr.(j).Event.kind = Event.Acquire_fast ->
            let expected =
              if arr.(j).Event.tid = e.Event.tid then Oracle.Count_error
              else Oracle.Ownership_violation
            in
            add "drop-release-fast" expected (fun () -> renumber (drop arr i))
        | _ -> ())
    | Event.Release_nested ->
        add "retag-release-nested-as-fast" Oracle.Count_error (fun () ->
            renumber (retag arr i Event.Release_fast))
    | Event.Acquire_nested ->
        add "retag-acquire-nested-as-fast" Oracle.Count_error (fun () ->
            renumber (retag arr i Event.Acquire_fast))
    | Event.Inflate_overflow | Event.Inflate_contention -> (
        add "dup-inflate" Oracle.Reinflation_of_retired (fun () ->
            renumber (insert_after arr i e));
        match next_on_obj i with
        | Some j when arr.(j).Event.kind = Event.Acquire_fat ->
            add "drop-inflate" Oracle.Stale_handle (fun () ->
                renumber (drop arr i));
            add "reorder-inflate-confirm" Oracle.Stale_handle (fun () ->
                renumber (swap arr i j))
        | _ -> ())
    | Event.Inflate_wait ->
        add "dup-inflate" Oracle.Reinflation_of_retired (fun () ->
            renumber (insert_after arr i e))
    | Event.Deflate_quiescent | Event.Deflate_concurrent ->
        add "dup-deflate" Oracle.Deflation_without_handshake (fun () ->
            renumber (insert_after arr i e))
    | Event.Deflate_aborted ->
        (* Deflating an owned or waited-on monitor breaks the handshake
           on the spot.  Past a queued entrant the stream shows no
           blocker (its only trace is an observation, [Contended_begin]),
           so the deflation itself looks legal; the break shows when the
           entrant (or anyone) next takes the fat path on the now
           monitor-less object. *)
        if List.mem i g.queued_aborts then
          add "retag-queued-abort-as-deflated" Oracle.Stale_handle (fun () ->
              renumber (retag arr i Event.Deflate_quiescent))
        else
          add "retag-aborted-as-deflated" Oracle.Deflation_without_handshake
            (fun () -> renumber (retag arr i Event.Deflate_quiescent))
    | Event.Reaper_scan | Event.Quiescence | Event.Tid_overflow
    | Event.Policy_switch ->
        if i < n - 1 then
          add "drop-unrenumbered" Oracle.Stream_malformed (fun () -> drop arr i)
    | Event.Acquire_fat | Event.Acquire_fat_queued | Event.Release_fat
    | Event.Contended_begin | Event.Contended_end | Event.Wait_op
    | Event.Notify_op | Event.Notify_all_op
    (* the generator emits thin-protocol schedules only; cjm lifecycle
       kinds never appear here *)
    | Event.Cjm_monitor_create | Event.Cjm_monitor_evaporate ->
        ());
    (* any event duplicated in place (same seq) breaks the stream's
       structural contract *)
    if i < n - 1 then
      add "dup-in-place" Oracle.Stream_malformed (fun () -> insert_after arr i e)
  done;
  (* a signalled waiter whose resume-exit release disappears never
     exits its wait: the lost-wakeup class.  Only usable when no later
     event on that object comes from the same thread (any owner event
     would resume the thread) or deflates the monitor. *)
  List.iter
    (fun i ->
      let e = arr.(i) in
      let rec clean_tail j =
        if j >= n then true
        else
          let f = arr.(j) in
          if (not (is_object_event f.Event.kind)) || f.Event.arg <> e.Event.arg
          then clean_tail (j + 1)
          else if f.Event.tid = e.Event.tid then false
          else if
            f.Event.kind = Event.Deflate_quiescent
            || f.Event.kind = Event.Deflate_concurrent
          then false
          else clean_tail (j + 1)
      in
      if clean_tail (i + 1) then
        add "drop-wait-exit" Oracle.Lost_wakeup (fun () -> renumber (drop arr i)))
    g.wait_exits;
  match !candidates with
  | [] -> None
  | cs ->
      let cs = Array.of_list cs in
      let name, expected, make = cs.(Prng.int prng (Array.length cs)) in
      Some { m_name = name; m_expected = expected; m_stream = stream (make ()) }
