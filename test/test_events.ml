(* tl_events: event kinds, the single-writer ring, the sink's
   epoch-stamped merge (dense seq reconstruction, system-stream
   ordering, drop honesty, tid clamping, sampling), both codecs
   (golden + qcheck round trips — the suite tools/check.sh pins), and
   end-to-end instrumentation through Thin, the reaper and the
   runtime's quiescence points. *)

open Tl_events
module Runtime = Tl_runtime.Runtime
module Thin = Tl_core.Thin
module Ctl = Tl_lifecycle.Controller
module H = Tl_heap.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A drained stream's events as records, for assertions. *)
let evs = Tl_test_helpers.Stream_gen.events_of

(* --- kinds --- *)

let test_kind_int_roundtrip () =
  List.iteri
    (fun i k ->
      check_int "dense numbering" i (Event.kind_to_int k);
      check "int roundtrip" true (Event.kind_of_int (Event.kind_to_int k) = k))
    Event.all_kinds;
  let rejected i =
    match Event.kind_of_int i with _ -> false | exception Invalid_argument _ -> true
  in
  check "below range" true (rejected (-1));
  check "above range" true (rejected (List.length Event.all_kinds));
  check_int "n_kinds matches" (List.length Event.all_kinds) Event.n_kinds;
  check "kinds fit kind_bits" true (Event.n_kinds <= 1 lsl Event.kind_bits)

let test_kind_name_roundtrip () =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun k ->
      let name = Event.kind_name k in
      check ("unique name " ^ name) false (Hashtbl.mem seen name);
      Hashtbl.replace seen name ();
      check ("name roundtrip " ^ name) true (Event.kind_of_name name = Some k))
    Event.all_kinds;
  check "unknown name" true (Event.kind_of_name "acquire-bogus" = None)

let test_kind_masks () =
  List.iter
    (fun k ->
      let bit m = (m lsr Event.kind_to_int k) land 1 = 1 in
      check "object mask matches predicate" (Event.carries_object k)
        (bit Event.object_kind_mask);
      check "fast mask only on thin fast/nested paths"
        (match k with
        | Event.Acquire_fast | Event.Acquire_nested | Event.Release_fast
        | Event.Release_nested ->
            true
        | _ -> false)
        (bit Event.fast_path_kind_mask))
    Event.all_kinds;
  check "reaper arg is a count" false (Event.carries_object Event.Reaper_scan);
  check "quiescence arg is a count" false (Event.carries_object Event.Quiescence)

(* --- ring --- *)

(* Fold over a ring's stored events in write order (producer
   quiesced). *)
let ring_fold f acc ring =
  let left = ref (Ring.written ring) in
  let acc = ref acc in
  Array.iter
    (fun chunk ->
      let n = min !left (Array.length chunk / 2) in
      for i = 0 to n - 1 do
        let m = chunk.(2 * i) in
        let kind = Event.kind_of_int (m land ((1 lsl Event.kind_bits) - 1)) in
        acc := f !acc ~stamp:(m lsr Event.kind_bits) ~kind ~arg:chunk.((2 * i) + 1)
      done;
      left := !left - n)
    (Array.of_list (List.rev (ring.Ring.chunk :: ring.Ring.sealed)));
  !acc

let test_ring_overflow_drops_suffix () =
  let ring = Ring.create 8 in
  for i = 0 to 10 do
    Ring.emit ring ~stamp:i ~kind:Event.Acquire_fast ~arg:(100 + i)
  done;
  check_int "written caps at capacity" 8 (Ring.written ring);
  check_int "overflow counted" 3 (Ring.dropped ring);
  check_int "capacity" 8 (Ring.capacity ring);
  (* the surviving prefix is intact and in write order *)
  let stamps =
    List.rev (ring_fold (fun acc ~stamp ~kind:_ ~arg:_ -> stamp :: acc) [] ring)
  in
  check "prefix, in order" true (stamps = [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let test_ring_packs_wide_stamps () =
  let ring = Ring.create 4 in
  let big = 1 lsl 50 in
  Ring.emit ring ~stamp:big ~kind:Event.Quiescence ~arg:(-3);
  let got = ring_fold (fun _ ~stamp ~kind ~arg -> Some (stamp, kind, arg)) None ring in
  check "stamp/kind/arg survive packing" true
    (got = Some (big, Event.Quiescence, -3))

let test_ring_rejects_zero_capacity () =
  match Ring.create 0 with
  | _ -> Alcotest.fail "capacity 0 must be rejected"
  | exception Invalid_argument _ -> ()

(* --- sink --- *)

let test_sink_disabled_is_inert () =
  check "disabled" false (Sink.enabled Sink.disabled);
  Sink.emit Sink.disabled ~tid:1 ~kind:Event.Acquire_fast ~arg:0;
  Sink.emit_system Sink.disabled ~kind:Event.Reaper_scan ~arg:0;
  Sink.advance_epoch Sink.disabled;
  check_int "nothing accepted" 0 (Sink.emitted Sink.disabled);
  check_int "nothing clamped" 0 (Sink.clamped Sink.disabled);
  let d = Sink.drain Sink.disabled in
  check_int "no events" 0 (Sink.length d);
  check "no drops" true (d.Sink.dropped = [])

(* Within one epoch the merge groups by tid; an epoch advance is a
   hard cross-thread order boundary. *)
let test_sink_merge_within_and_across_epochs () =
  let sink = Sink.create ~ring_capacity:64 () in
  List.iter
    (fun (tid, arg) -> Sink.emit sink ~tid ~kind:Event.Acquire_fast ~arg)
    [ (3, 30); (1, 10); (2, 20); (1, 11) ];
  Sink.advance_epoch sink;
  (* after the boundary, even the smallest tid sorts later *)
  Sink.emit sink ~tid:1 ~kind:Event.Acquire_fast ~arg:12;
  Sink.emit sink ~tid:3 ~kind:Event.Acquire_fast ~arg:31;
  let d = Sink.drain sink in
  check_int "all recorded" 6 (Sink.length d);
  for i = 0 to Sink.length d - 1 do
    check_int "seq dense from 0" i (Sink.seq d i)
  done;
  check "epoch 0 grouped by tid, epoch 1 after" true
    (d.Sink.args = [| 10; 11; 20; 30; 12; 31 |]);
  check "tids follow the merge" true
    (Array.init (Sink.length d) (Sink.tid d) = [| 1; 1; 2; 3; 1; 3 |]);
  (* drain reads, never consumes, and is deterministic *)
  check "drain is repeatable and identical" true (Sink.drain sink = d)

(* Regression (tid-0 misattribution): out-of-range tids used to fold
   onto the system stream, where they would masquerade as
   deflater/reaper actions.  They must be counted and dropped. *)
let test_sink_rejects_out_of_range_tids () =
  let sink = Sink.create ~ring_capacity:8 () in
  Sink.emit sink ~tid:Sink.max_tids ~kind:Event.Quiescence ~arg:1;
  Sink.emit sink ~tid:(-7) ~kind:Event.Wait_op ~arg:2;
  Sink.emit sink ~tid:0 ~kind:Event.Wait_op ~arg:3 (* 0 is emit_system's *);
  let d = Sink.drain sink in
  check_int "nothing recorded" 0 (Sink.length d);
  check_int "rejections counted" 3 (Sink.clamped sink);
  check "no ring created (system stream untouched)" true (Sink.active_tids sink = []);
  check_int "not counted as emitted" 0 (Sink.emitted sink);
  (* the boundary tids are fine *)
  Sink.emit sink ~tid:1 ~kind:Event.Acquire_fast ~arg:4;
  Sink.emit sink ~tid:(Sink.max_tids - 1) ~kind:Event.Acquire_fast ~arg:5;
  check_int "boundary tids accepted" 2 (Sink.length (Sink.drain sink));
  check_int "no further clamps" 3 (Sink.clamped sink)

let test_sink_reports_drops_per_tid () =
  let sink = Sink.create ~ring_capacity:16 () in
  for i = 1 to 100 do
    Sink.emit sink ~tid:5 ~kind:Event.Release_fast ~arg:i
  done;
  Sink.emit sink ~tid:2 ~kind:Event.Quiescence ~arg:0;
  let d = Sink.drain sink in
  check_int "accepted = recorded + dropped" 101 (Sink.emitted sink);
  check "per-tid drop counts" true (d.Sink.dropped = [ (5, 84) ]);
  check_int "total_dropped" 84 (Sink.total_dropped sink);
  check_int "total_dropped sums the drained counts"
    (List.fold_left (fun n (_, k) -> n + k) 0 d.Sink.dropped)
    (Sink.total_dropped sink);
  check_int "count_kind sees survivors" 16 (Sink.count_kind d Event.Release_fast)

(* Regression (drop-induced seq holes): the old global ticket was
   consumed even when the ring dropped the event, so streams with drops
   carried seq holes.  The drain-time merge numbers survivors densely,
   and the oracle accepts the stream with its honest drop count. *)
let test_drops_leave_no_seq_holes () =
  let sink = Sink.create ~ring_capacity:2 () in
  Sink.emit sink ~tid:1 ~kind:Event.Acquire_fast ~arg:5;
  Sink.emit sink ~tid:1 ~kind:Event.Release_fast ~arg:5;
  Sink.emit sink ~tid:1 ~kind:Event.Acquire_fast ~arg:5 (* dropped *);
  Sink.emit sink ~tid:1 ~kind:Event.Release_fast ~arg:5 (* dropped *);
  Sink.emit sink ~tid:2 ~kind:Event.Acquire_fast ~arg:9;
  Sink.emit sink ~tid:2 ~kind:Event.Release_fast ~arg:9;
  let d = Sink.drain sink in
  check_int "four survivors" 4 (Sink.length d);
  check "honest drop count" true (d.Sink.dropped = [ (1, 2) ]);
  for i = 0 to Sink.length d - 1 do
    check_int "seq dense despite drops" i (Sink.seq d i)
  done;
  let report = Oracle.check ~count_width:8 d in
  check "oracle accepts drops without seq holes" true (Oracle.ok report)

let test_sink_one_slot_ring_satisfies_oracle () =
  let sink = Sink.create ~ring_capacity:1 () in
  for i = 1 to 6 do
    Sink.emit sink ~tid:1 ~kind:Event.Quiescence ~arg:i
  done;
  let d = Sink.drain sink in
  check_int "one survivor" 1 (Sink.length d);
  check_int "survivor renumbered to 0" 0 (Sink.seq d 0);
  check "five drops recorded" true (d.Sink.dropped = [ (1, 5) ]);
  check "oracle accepts the honest stream" true (Oracle.ok (Oracle.check d))

(* The oracle's density check is drop-aware, not drop-blind: declared
   drops excuse exactly that many holes, no more. *)
let test_oracle_drop_aware_density () =
  let ev seq = { Event.seq; tid = 1; kind = Event.Quiescence; arg = seq; ord = 0 } in
  let holes_ok = Sink.of_events ~dropped:[ (1, 1) ] [| ev 0; ev 2 |] in
  check "1 hole, 1 drop: accepted" true (Oracle.ok (Oracle.check holes_ok));
  let holes_bad = Sink.of_events ~dropped:[ (1, 1) ] [| ev 0; ev 5 |] in
  let report = Oracle.check holes_bad in
  check "4 holes, 1 drop: malformed" true
    (Oracle.find report Oracle.Stream_malformed <> None)

let test_system_events_interleave_exactly () =
  let sink = Sink.create ~ring_capacity:64 () in
  Sink.emit sink ~tid:1 ~kind:Event.Acquire_fast ~arg:5;
  Sink.emit sink ~tid:1 ~kind:Event.Inflate_overflow ~arg:5;
  Sink.emit sink ~tid:1 ~kind:Event.Acquire_fat ~arg:5;
  Sink.emit sink ~tid:1 ~kind:Event.Release_fat ~arg:5;
  Sink.emit sink ~tid:1 ~kind:Event.Release_fat ~arg:5;
  (* the deflater runs with no env: its ticket stamp must sort it after
     the release that made the monitor idle... *)
  Sink.emit_system sink ~kind:Event.Deflate_quiescent ~arg:5;
  (* ...and before anything a mutator emits afterwards *)
  Sink.emit sink ~tid:1 ~kind:Event.Acquire_fast ~arg:5;
  Sink.emit sink ~tid:1 ~kind:Event.Release_fast ~arg:5;
  let d = Sink.drain sink in
  let kinds = Array.init (Sink.length d) (Sink.kind d) in
  check "system event lands exactly between release and re-acquire" true
    (kinds
    = [|
        Event.Acquire_fast; Event.Inflate_overflow; Event.Acquire_fat;
        Event.Release_fat; Event.Release_fat; Event.Deflate_quiescent;
        Event.Acquire_fast; Event.Release_fast;
      |]);
  check_int "on the system stream" 0 (Sink.tid d 5);
  check "oracle accepts the interleaving" true
    (Oracle.ok (Oracle.check d))

let test_sink_multithreaded_emit () =
  let sink = Sink.create ~ring_capacity:4096 () in
  let per_thread = 500 and threads = 4 in
  let handles =
    List.init threads (fun t ->
        Thread.create
          (fun () ->
            for i = 0 to per_thread - 1 do
              Sink.emit sink ~tid:(t + 1) ~kind:Event.Acquire_fast ~arg:i
            done)
          ())
  in
  List.iter Thread.join handles;
  let d = Sink.drain sink in
  check_int "nothing lost" (threads * per_thread) (Sink.length d);
  check "no drops" true (d.Sink.dropped = []);
  (* dense reconstructed seqs; each thread's events keep program order *)
  let last_seq = ref (-1) in
  let last_arg = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      check "strictly increasing seq" true (e.Event.seq > !last_seq);
      last_seq := e.Event.seq;
      let prev = Option.value ~default:(-1) (Hashtbl.find_opt last_arg e.Event.tid) in
      check "per-thread program order" true (e.Event.arg > prev);
      Hashtbl.replace last_arg e.Event.tid e.Event.arg)
    (evs d);
  check "double drain deterministic" true (Sink.drain sink = d)

(* Records in, records out: [Sink.of_events] then [Sink.event] is the
   identity, for any kind, arg and ordinal, tids a sink never issues
   (past [max_tids], at the column's limits) and seqs with the gaps a
   parsed dump may carry; the drop list rides along. *)
let prop_columns_round_trip =
  let open QCheck.Gen in
  let tid =
    frequency
      [
        (8, int_range 0 (Sink.max_tids - 1));
        (2, int_range Sink.max_tids (1 lsl 40));
        (1, oneofl [ Sink.max_stream_tid; -Sink.max_stream_tid - 1; -1 ]);
      ]
  in
  let event =
    tup5 tid (oneofl Event.all_kinds)
      (oneof [ int; oneofl [ min_int; max_int ] ])
      nat
      (frequency [ (6, return 1); (1, int_range 2 1000) ])
  in
  let gen =
    pair (list_size (int_range 0 60) event) (list_size (int_range 0 3) (pair nat nat))
    >|= fun (cells, dropped) ->
    let seq = ref (-1) in
    ( Array.of_list
        (List.map
           (fun (tid, kind, arg, ord, gap) ->
             seq := !seq + gap;
             { Event.seq = !seq; tid; kind; arg; ord })
           cells),
      dropped )
  in
  QCheck.Test.make ~name:"of_events then event is the identity" ~count:300
    (QCheck.make gen ~print:(fun (events, _) ->
         String.concat "; " (Array.to_list (Array.map (Format.asprintf "%a" Event.pp) events))))
    (fun (events, dropped) ->
      let d = Sink.of_events ~dropped events in
      Sink.length d = Array.length events && evs d = events && d.Sink.dropped = dropped)

let test_of_events_rejects_unpackable_tid () =
  let ev tid = { Event.seq = 0; tid; kind = Event.Quiescence; arg = 0; ord = 0 } in
  List.iter
    (fun tid ->
      match Sink.of_events [| ev tid |] with
      | _ -> Alcotest.failf "tid %d must not fit the events column" tid
      | exception Invalid_argument _ -> ())
    [ Sink.max_stream_tid + 1; max_int; min_int ]

(* A clean stream of [n] events: four threads, each locking its own
   object fast, nested and through a contended episode. *)
let clean_sink n =
  let sink = Sink.create ~ring_capacity:n () in
  let pattern =
    [|
      Event.Acquire_fast; Event.Acquire_nested; Event.Release_nested; Event.Release_fast;
      Event.Contended_begin; Event.Contended_end; Event.Acquire_fast; Event.Release_fast;
    |]
  in
  for i = 0 to n - 1 do
    let tid = 1 + (i / Array.length pattern mod 4) in
    Sink.emit sink ~tid ~kind:pattern.(i mod Array.length pattern) ~arg:(100 + tid);
    if i mod 1000 = 999 then Sink.advance_epoch sink
  done;
  sink

(* Minor-heap words spent by a drain, then by the oracle on what it
   drained.  An [Event.t] record is 6 words, so a per-event record
   anywhere between the drain and the verdict would add ~540k words
   from 10k to 100k events. *)
let drain_and_check_words n =
  let sink = clean_sink n in
  let w0 = Gc.minor_words () in
  let d = Sink.drain sink in
  let w1 = Gc.minor_words () in
  let report = Oracle.check ~count_width:8 d in
  let w2 = Gc.minor_words () in
  check "clean stream" true (Oracle.ok report);
  check_int "every event drained" n (Sink.length d);
  (w1 -. w0, w2 -. w1)

let test_drain_and_verdict_allocate_no_events () =
  let drain_small, check_small = drain_and_check_words 10_000 in
  let drain_big, check_big = drain_and_check_words 100_000 in
  let flat name small big =
    if big > small +. 256.0 then
      Alcotest.failf "%s: %.0f minor words at 10k events, %.0f at 100k" name small big
  in
  flat "drain" drain_small drain_big;
  flat "oracle" check_small check_big;
  check "drain's minor words are a constant, not a per-event cost" true (drain_big < 2000.0);
  check "oracle's minor words are a constant, not a per-event cost" true (check_big < 2000.0)

(* --- sampling --- *)

let test_sampling_one_in_n_keeps_whole_objects () =
  let sink = Sink.create ~ring_capacity:4096 ~sampling:(Sink.One_in_n 4) () in
  let objects = 200 in
  for obj = 1 to objects do
    Sink.emit sink ~tid:1 ~kind:Event.Acquire_fast ~arg:obj;
    Sink.emit sink ~tid:1 ~kind:Event.Release_fast ~arg:obj
  done;
  Sink.emit_system sink ~kind:Event.Reaper_scan ~arg:0;
  let d = Sink.drain sink in
  let per_obj = Hashtbl.create 64 in
  let reaper = ref 0 in
  Array.iter
    (fun e ->
      if Event.carries_object e.Event.kind then
        Hashtbl.replace per_obj e.Event.arg
          (1 + Option.value ~default:0 (Hashtbl.find_opt per_obj e.Event.arg))
      else incr reaper)
    (evs d);
  let kept = Hashtbl.length per_obj in
  check "a proper subset of objects survives" true (kept > 0 && kept < objects);
  Hashtbl.iter
    (fun _ n -> check_int "whole per-object history survives" 2 n)
    per_obj;
  check_int "non-object events always kept" 1 !reaper;
  (* sampled per-object histories are still oracle-checkable *)
  check "oracle ok on sampled stream" true (Oracle.ok (Oracle.check d));
  (* the selection is a stable function of the object id *)
  let sink2 = Sink.create ~ring_capacity:4096 ~sampling:(Sink.One_in_n 4) () in
  for obj = 1 to objects do
    Sink.emit sink2 ~tid:1 ~kind:Event.Acquire_fast ~arg:obj;
    Sink.emit sink2 ~tid:1 ~kind:Event.Release_fast ~arg:obj
  done;
  let objs d =
    Array.to_list (evs d)
    |> List.filter_map (fun (e : Event.t) ->
           if Event.carries_object e.Event.kind then Some e.Event.arg else None)
    |> List.sort_uniq compare
  in
  check "same objects selected across sinks" true
    (objs d = objs (Sink.drain sink2))

let test_sampling_contended_only () =
  let sink = Sink.create ~ring_capacity:64 ~sampling:Sink.Contended_only () in
  Sink.emit sink ~tid:1 ~kind:Event.Acquire_fast ~arg:5 (* suppressed *);
  Sink.emit sink ~tid:1 ~kind:Event.Release_nested ~arg:5 (* suppressed *);
  Sink.emit sink ~tid:1 ~kind:Event.Inflate_contention ~arg:5;
  Sink.emit sink ~tid:2 ~kind:Event.Contended_begin ~arg:5;
  Sink.emit sink ~tid:2 ~kind:Event.Contended_end ~arg:5;
  Sink.emit_system sink ~kind:Event.Reaper_scan ~arg:1;
  let d = Sink.drain sink in
  check_int "fast-path kinds suppressed" 4 (Sink.length d);
  check_int "no fast acquires" 0 (Sink.count_kind d Event.Acquire_fast);
  check_int "inflation kept" 1 (Sink.count_kind d Event.Inflate_contention);
  check_int "episode boundaries kept" 2
    (Sink.count_kind d Event.Contended_begin + Sink.count_kind d Event.Contended_end);
  check_int "system events kept" 1 (Sink.count_kind d Event.Reaper_scan)

(* --- linearisation property (qcheck) --- *)

(* Random multi-thread emission schedules over disjoint objects, with
   the main thread racing epoch advances: the reconstructed stream must
   be dense, keep each thread's program order exactly, satisfy the
   oracle, and drain deterministically. *)
let prop_drain_reconstruction_is_legal =
  let gen = QCheck.Gen.(list_size (int_range 1 4) (int_range 0 40)) in
  let arb = QCheck.make gen ~print:QCheck.Print.(list int) in
  QCheck.Test.make ~name:"drain reconstruction is a legal linearisation" ~count:15
    arb (fun counts ->
      let sink = Sink.create ~ring_capacity:4096 () in
      let handles =
        List.mapi
          (fun t n ->
            Thread.create
              (fun () ->
                let obj = 1000 + t in
                for _ = 1 to n do
                  Sink.emit sink ~tid:(t + 1) ~kind:Event.Acquire_fast ~arg:obj;
                  Sink.emit sink ~tid:(t + 1) ~kind:Event.Release_fast ~arg:obj
                done)
              ())
          counts
      in
      (* race the epoch forward while emitters run *)
      for _ = 1 to 20 do
        Sink.advance_epoch sink;
        Thread.yield ()
      done;
      List.iter Thread.join handles;
      let d = Sink.drain sink in
      let total = 2 * List.fold_left ( + ) 0 counts in
      let dense = ref true in
      for i = 0 to Sink.length d - 1 do
        if Sink.seq d i <> i then dense := false
      done;
      (* per-tid projection = that thread's exact program order *)
      let per_tid_ok = ref true in
      List.iteri
        (fun t n ->
          let mine =
            Array.to_list (evs d)
            |> List.filter (fun (e : Event.t) -> e.Event.tid = t + 1)
            |> List.map (fun (e : Event.t) -> e.Event.kind)
          in
          let expect =
            List.concat
              (List.init n (fun _ -> [ Event.Acquire_fast; Event.Release_fast ]))
          in
          if mine <> expect then per_tid_ok := false)
        counts;
      Sink.length d = total
      && d.Sink.dropped = []
      && !dense && !per_tid_ok
      && Oracle.ok (Oracle.check ~count_width:8 d)
      && Sink.drain sink = d)

(* --- merge drain vs a reference sort (qcheck) --- *)

(* One step of a tid's lease segment.  [Emit] lands on the segment's
   tid, [System] on the system stream. *)
type step = Emit of Event.kind * int | System of Event.kind * int | Advance

(* A test-only model of the sink's stamping (plain emits stamp [2e];
   tickets stamp [2e+1] and bump [e]; object events outside
   [0, max_objects) are rejected; per-object ordinals as
   [Stream_gen.stamp] assigns them, in emission order, dropped events
   included) and the drain's contract: the surviving events of every
   ring, numbered in (stamp, rid, pos) order, as the four columns
   [Sink.drained] documents, and the per-ring overflow counts. *)
let reference_drain ~cap ~system_cap segments =
  let epoch = ref 0 in
  let appends = Hashtbl.create 64 in
  let ords = Hashtbl.create 64 in
  let cells = ref [] in
  let rejected kind arg = Event.carries_object kind && (arg < 0 || arg >= Sink.max_objects) in
  let append rid stamp kind arg =
    if not (rejected kind arg) then begin
      let ord =
        if not (Event.carries_object kind) then 0
        else
          let cur = Option.value ~default:0 (Hashtbl.find_opt ords arg) in
          let ord = if Event.holder_stamped kind then cur + 1 else cur in
          Hashtbl.replace ords arg ord;
          ord
      in
      let pos = Option.value ~default:0 (Hashtbl.find_opt appends rid) in
      Hashtbl.replace appends rid (pos + 1);
      if pos < (if rid = 0 then system_cap else cap) then
        cells := (stamp, rid, pos, kind, arg, ord) :: !cells
    end
  in
  let ticket () =
    let e = !epoch in
    incr epoch;
    (2 * e) + 1
  in
  List.iter
    (fun (tid, steps) ->
      List.iter
        (function
          | Emit (kind, arg) -> append tid (2 * !epoch) kind arg
          | System (kind, arg) -> if not (rejected kind arg) then append 0 (ticket ()) kind arg
          | Advance -> incr epoch)
        steps)
    segments;
  (* (stamp, rid, pos) is unique per cell, so the sort never looks
     past it *)
  let cells = Array.of_list (List.sort compare !cells) in
  let column f = Array.mapi f cells in
  let events =
    column (fun _ (_, tid, _, kind, _, _) -> Event.kind_to_int kind lor (tid lsl Event.kind_bits))
  in
  let dropped =
    Hashtbl.fold
      (fun rid n acc ->
        let d = n - if rid = 0 then system_cap else cap in
        if d > 0 then (rid, d) :: acc else acc)
      appends []
    |> List.sort compare
  in
  ( events,
    column (fun _ (_, _, _, _, arg, _) -> arg),
    column (fun _ (_, _, _, _, _, ord) -> ord),
    column (fun seq _ -> seq),
    dropped )

let replay_segments sink segments =
  List.iter
    (fun (tid, steps) ->
      List.iter
        (function
          | Emit (kind, arg) -> Sink.emit sink ~tid ~kind ~arg
          | System (kind, arg) -> Sink.emit_system sink ~kind ~arg
          | Advance -> Sink.advance_epoch sink)
        steps)
    segments

(* Many tids, leased in segments from a pool so that indices recur the
   way recycled leases do; plain and system emits; epoch
   advances; caps small enough that rings overflow (and straddle the
   initial ring size); args include ids the arg word cannot pack. *)
let arb_segments =
  let open QCheck.Gen in
  let kind = oneofl Event.all_kinds in
  (* a few objects, so ordinals climb; and the odd unpackable id *)
  let arg =
    frequency
      [ (12, int_range 0 5); (2, small_signed_int); (1, oneofl [ Sink.max_objects; max_int ]) ]
  in
  let step =
    frequency
      [
        (18, map2 (fun k a -> Emit (k, a)) kind arg);
        (1, map2 (fun k a -> System (k, a)) kind arg);
        (2, return Advance);
      ]
  in
  let gen =
    int_range 1 80 >>= fun cap ->
    int_range 1 80 >>= fun system_cap ->
    list_size (int_range 1 300) (int_range 1 (Sink.max_tids - 1)) >>= fun pool ->
    list_size (int_range 0 80) (pair (oneofl pool) (list_size (int_range 1 40) step))
    >|= fun segments -> (cap, system_cap, segments)
  in
  QCheck.make gen ~print:(fun (cap, system_cap, segments) ->
      Printf.sprintf "cap %d, system cap %d, %d segment(s): %s" cap system_cap
        (List.length segments)
        (String.concat "; "
           (List.map
              (fun (tid, steps) -> Printf.sprintf "tid %d x %d" tid (List.length steps))
              segments)))

let prop_merge_drain_matches_reference_sort =
  QCheck.Test.make ~name:"merge drain equals the (stamp, rid, pos) sort" ~count:200
    arb_segments (fun (cap, system_cap, segments) ->
      let sink = Sink.create ~ring_capacity:cap ~system_capacity:system_cap () in
      replay_segments sink segments;
      let d = Sink.drain sink in
      let rings = List.length (Sink.active_tids sink) in
      let events, args, ords, seqs, dropped = reference_drain ~cap ~system_cap segments in
      d.Sink.events = events && d.Sink.args = args && d.Sink.ords = ords
      && Array.init (Sink.length d) (Sink.seq d) = seqs
      (* a drain's seqs are its indices: it stores no column for them *)
      && d.Sink.seqs = [||]
      && d.Sink.dropped = dropped
      && Sink.total_dropped sink = List.fold_left (fun n (_, k) -> n + k) 0 d.Sink.dropped
      && Sink.buffered_words sink
         <= (4 * Sink.length d) + (rings * 2 * Ring.initial_slots))

(* A ring holds at most max(initial, 2N) slots after N writes and never
   more than its cap, while drop counts and fold order stay those of a
   fixed-size buffer. *)
let prop_ring_grows_with_use =
  QCheck.Test.make ~name:"ring slots follow writes, under the cap" ~count:200
    QCheck.(pair (int_range 1 300) (int_range 0 700))
    (fun (cap, n) ->
      let ring = Ring.create cap in
      let bounded = ref (Ring.slots ring <= Ring.initial_slots) in
      for i = 1 to n do
        Ring.emit ring ~stamp:i ~kind:Event.Acquire_fast ~arg:(-i);
        let s = Ring.slots ring in
        if s > max Ring.initial_slots (2 * i) || s > cap || s < min i cap then
          bounded := false
      done;
      let kept = min n cap in
      let stored =
        List.rev (ring_fold (fun acc ~stamp ~kind:_ ~arg -> (stamp, arg) :: acc) [] ring)
      in
      !bounded
      && Ring.written ring = kept
      && Ring.dropped ring = max 0 (n - cap)
      && stored = List.init kept (fun i -> (i + 1, -(i + 1))))

(* --- text codec (the golden suite tools/check.sh runs) --- *)

let golden_stream () =
  let sink = Sink.create ~ring_capacity:8 () in
  Sink.emit sink ~tid:1 ~kind:Event.Acquire_fast ~arg:7;
  Sink.emit sink ~tid:1 ~kind:Event.Inflate_overflow ~arg:7;
  Sink.advance_epoch sink;
  Sink.emit sink ~tid:2 ~kind:Event.Acquire_fat_queued ~arg:7;
  Sink.advance_epoch sink;
  Sink.emit sink ~tid:1 ~kind:Event.Release_fat ~arg:7;
  Sink.emit_system sink ~kind:Event.Deflate_quiescent ~arg:7;
  Sink.emit_system sink ~kind:Event.Reaper_scan ~arg:1;
  (* controller decisions ride the system stream with a packed arg —
     one hysteresis move, one exploration leg (bit 40 set): the golden
     text pins the packing *)
  Sink.emit_system sink ~kind:Event.Policy_switch
    ~arg:
      (Ctl.pack_switch
         { Ctl.shard = 5; from_policy = 2; to_policy = 3; score = 1250; explore = false });
  Sink.emit_system sink ~kind:Event.Policy_switch
    ~arg:
      (Ctl.pack_switch
         { Ctl.shard = 0; from_policy = 0; to_policy = 3; score = 0; explore = true });
  (* boundary values: negative arg, max tid, max-int arg (on kinds
     whose arg is a count), the largest packable object id *)
  Sink.emit sink ~tid:3 ~kind:Event.Quiescence ~arg:(-42);
  Sink.emit sink ~tid:(Sink.max_tids - 1) ~kind:Event.Quiescence ~arg:max_int;
  Sink.emit sink ~tid:(Sink.max_tids - 1) ~kind:Event.Wait_op ~arg:(Sink.max_objects - 1);
  (* cjm lifecycle kinds are holder-stamped like any transition, on the
     emitter's own stream; an observation carries the ordinal it read *)
  Sink.emit sink ~tid:2 ~kind:Event.Cjm_monitor_create ~arg:9;
  Sink.emit sink ~tid:4 ~kind:Event.Contended_begin ~arg:9;
  Sink.emit sink ~tid:2 ~kind:Event.Cjm_monitor_evaporate ~arg:9;
  Sink.drain sink

let golden_text =
  "# thinlocks-events v2\n\
   events 14\n\
   0 1 acquire-fast 7 1\n\
   1 1 inflate-overflow 7 2\n\
   2 2 acquire-fat-queued 7 3\n\
   3 1 release-fat 7 4\n\
   4 0 deflate-quiescent 7 5\n\
   5 0 reaper-scan 1 0\n\
   6 0 policy-switch 1310924805 0\n\
   7 0 policy-switch 1099511824384 0\n\
   8 2 cjm-monitor-create 9 1\n\
   9 2 cjm-monitor-evaporate 9 2\n\
   10 3 quiescence -42 0\n\
   11 4 contended-begin 9 1\n\
   12 32767 quiescence 4611686018427387903 0\n\
   13 32767 wait 268435455 1\n"

let test_codec_golden () =
  check_str "golden encoding" golden_text (Codec.to_string (golden_stream ()))

let test_codec_roundtrip_is_canonical () =
  (* to_string ∘ of_string is the identity on accepted inputs *)
  check_str "byte-for-byte" golden_text (Codec.to_string (Codec.of_string golden_text));
  let with_drops =
    Sink.of_events ~dropped:[ (1, 3); (4, 1_000_000) ] (evs (golden_stream ()))
  in
  let text = Codec.to_string with_drops in
  check_str "byte-for-byte with drops" text (Codec.to_string (Codec.of_string text));
  let back = Codec.of_string text in
  check "events survive" true (evs back = evs with_drops);
  check "drops survive" true (back.Sink.dropped = with_drops.Sink.dropped);
  let empty = Codec.to_string Sink.empty in
  check_str "empty stream" "# thinlocks-events v2\nevents 0\n" empty;
  check_str "empty roundtrip" empty (Codec.to_string (Codec.of_string empty))

let test_codec_boundary_args_roundtrip () =
  (* min_int exercises the sign edge in text and the zigzag edge in
     binary; both codecs must agree with the original stream *)
  let ev seq tid arg ord = { Event.seq; tid; kind = Event.Wait_op; arg; ord } in
  let d =
    Sink.of_events
      [|
        ev 0 1 max_int max_int; ev 1 (Sink.max_tids - 1) min_int 0; ev 2 3 (-1) 1;
        ev 3 4 0 (1 lsl 40);
      |]
  in
  let via_text = Codec.of_string (Codec.to_string d) in
  check "text boundary round trip" true (via_text = d);
  let via_bin = Codec_bin.of_bytes (Codec_bin.to_bytes d) in
  check "binary boundary round trip" true (via_bin = d)

let test_codec_parse_errors () =
  let expect_parse_error text =
    match Codec.of_string text with
    | _ -> Alcotest.failf "expected parse error on %S" text
    | exception Codec.Parse_error _ -> ()
  in
  expect_parse_error "";
  expect_parse_error "# thinlocks-events v3\nevents 0\n" (* wrong magic *);
  (* a version 1 dump (no ordinals) is refused by name *)
  (match Codec.of_string "# thinlocks-events v1\nevents 1\n0 1 acquire-fast 7\n" with
  | _ -> Alcotest.fail "expected a v1 dump to be refused"
  | exception Codec.Parse_error msg ->
      check "error names version 1" true
        (let sub = "version 1" in
         let n = String.length msg and m = String.length sub in
         let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
         go 0));
  expect_parse_error "# thinlocks-events v2\nevents 0" (* no trailing newline *);
  expect_parse_error "# thinlocks-events v2\nevents 2\n0 1 acquire-fast 7 1\n" (* short *);
  expect_parse_error
    "# thinlocks-events v2\nevents 1\n0 1 acquire-fast 7 1\n1 1 release-fast 7 2\n"
    (* trailing data *);
  expect_parse_error "# thinlocks-events v2\nevents 01\n" (* leading zero *);
  expect_parse_error "# thinlocks-events v2\nevents -1\n" (* negative count *);
  expect_parse_error "# thinlocks-events v2\nevents 1\n0 1 acquire-warp 7 1\n"
    (* unknown kind *);
  expect_parse_error "# thinlocks-events v2\nevents 1\n0 1 acquire-fast 7\n"
    (* missing field: the v1 shape *);
  expect_parse_error "# thinlocks-events v2\nevents 0\ndropped 3 1\ndropped 2 1\n"
    (* tids out of order *);
  expect_parse_error "# thinlocks-events v2\nevents 0\ndropped 2 0\n"
    (* zero drop count *);
  expect_parse_error "# thinlocks-events v2\nevents 0\ndropped 2 -3\n"
    (* negative drop count *);
  (* no sink ever emits these; the parser must not invent them either *)
  expect_parse_error "# thinlocks-events v2\nevents 1\n-1 1 acquire-fast 7 1\n"
    (* negative seq *);
  expect_parse_error "# thinlocks-events v2\nevents 1\n0 -1 acquire-fast 7 1\n"
    (* negative tid *);
  expect_parse_error "# thinlocks-events v2\nevents 1\n0 1 acquire-fast 7 -1\n"
    (* negative ordinal *)

let drained_arb =
  let open QCheck.Gen in
  let kind = oneofl Event.all_kinds in
  let gen =
    let* n = int_range 0 40 in
    let* seq0 = int_range 0 1000 in
    let* events =
      array_repeat n
        (let* tid = int_range 0 50 in
         let* k = kind in
         let* arg =
           oneof [ int_range (-100_000) 100_000; oneofl [ max_int; min_int; 0 ] ]
         in
         let* ord = oneof [ int_range 0 1000; oneofl [ max_int; 0 ] ] in
         return (tid, k, arg, ord))
    in
    (* seqs strictly increasing, as drain produces *)
    let events =
      Array.mapi
        (fun i (tid, k, arg, ord) -> { Event.seq = seq0 + i; tid; kind = k; arg; ord })
        events
    in
    let* drop_tids = list_size (int_range 0 4) (int_range 0 60) in
    let drop_tids = List.sort_uniq compare drop_tids in
    let* dropped =
      flatten_l (List.map (fun tid -> map (fun n -> (tid, n + 1)) (int_range 0 99)) drop_tids)
    in
    return (Sink.of_events ~dropped events)
  in
  QCheck.make gen ~print:Codec.to_string

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"text codec round trips any drained stream" ~count:100
    drained_arb (fun d ->
      let text = Codec.to_string d in
      let back = Codec.of_string text in
      evs back = evs d
      && back.Sink.dropped = d.Sink.dropped
      && String.equal (Codec.to_string back) text)

(* --- binary codec --- *)

let prop_codec_bin_roundtrip =
  QCheck.Test.make ~name:"binary codec round trips any drained stream" ~count:100
    drained_arb (fun d ->
      let bytes = Codec_bin.to_bytes d in
      let back = Codec_bin.of_bytes bytes in
      evs back = evs d
      && back.Sink.dropped = d.Sink.dropped
      && String.equal (Codec_bin.to_bytes back) bytes
      (* the auto-detecting entry point must agree with both parsers *)
      && Codec_bin.of_string_auto bytes = back
      && Codec_bin.of_string_auto (Codec.to_string d) = back)

let test_codec_bin_golden_empty () =
  check_str "empty binary stream" (Codec_bin.magic ^ "\x00\x00")
    (Codec_bin.to_bytes Sink.empty)

let test_codec_bin_compact () =
  let d = golden_stream () in
  let bytes = Codec_bin.to_bytes d in
  check "binary beats text" true (String.length bytes < String.length golden_text);
  check "binary round trip of the golden stream" true (Codec_bin.of_bytes bytes = d)

let test_codec_bin_parse_errors () =
  let expect_error bytes =
    match Codec_bin.of_bytes bytes with
    | _ -> Alcotest.failf "expected binary parse error on %S" bytes
    | exception Codec_bin.Parse_error _ -> ()
  in
  let bin s = Codec_bin.magic ^ s in
  expect_error "";
  expect_error "# thinlocks-events v2\nevents 0\n" (* text magic *);
  (* a version 1 blob (no ordinals) is recognised as binary and
     refused by name, through either entry point *)
  let v1 = "# thinlocks-events bin v1\n\x00\x00" in
  check "v1 blob still looks binary" true (Codec_bin.looks_binary v1);
  List.iter
    (fun parse ->
      match parse v1 with
      | _ -> Alcotest.fail "expected a binary v1 blob to be refused"
      | exception Codec_bin.Parse_error msg ->
          check "error names version 1" true
            (let sub = "version 1" in
             let n = String.length msg and m = String.length sub in
             let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
             go 0))
    [ Codec_bin.of_bytes; Codec_bin.of_string_auto ];
  expect_error (bin "") (* truncated counts *);
  expect_error (bin "\x00\x00\x00") (* trailing byte *);
  expect_error (bin "\x80\x00") (* non-minimal varint *);
  expect_error (bin "\x01\x00\x00\x14") (* kind byte out of range (20) *);
  expect_error (bin "\x02\x00\x00\x00\x01\x00\x00") (* zero seq delta *);
  expect_error (bin "\x00\x02\x03\x01\x02\x01") (* drop tids out of order *);
  expect_error (bin "\x00\x01\x02\x00") (* zero drop count *);
  let valid = Codec_bin.to_bytes (golden_stream ()) in
  expect_error (String.sub valid 0 (String.length valid - 1)) (* truncated *);
  expect_error (valid ^ "\x00") (* trailing bytes *)

(* --- end-to-end instrumentation --- *)

let test_thin_emits_protocol_events () =
  let runtime = Runtime.create () in
  let sink = Sink.create ~ring_capacity:256 () in
  let config = { Thin.default_config with count_width = 1 } in
  let ctx = Thin.create_with ~config ~events:sink runtime in
  let env = Runtime.main_env runtime in
  let heap = H.create () in
  let obj = H.alloc heap in
  (* depth 3 under a 1-bit count: fast, nested, overflow-inflate *)
  Thin.acquire ctx env obj;
  Thin.acquire ctx env obj;
  Thin.acquire ctx env obj;
  Thin.release ctx env obj;
  Thin.release ctx env obj;
  Thin.release ctx env obj;
  check "deflates" true (Thin.deflate_idle ctx obj);
  let d = Sink.drain sink in
  check_int "one fast acquire" 1 (Sink.count_kind d Event.Acquire_fast);
  check_int "one nested acquire" 1 (Sink.count_kind d Event.Acquire_nested);
  check_int "one overflow inflation" 1 (Sink.count_kind d Event.Inflate_overflow);
  check_int "overflow acquire traced as fat" 1 (Sink.count_kind d Event.Acquire_fat);
  check_int "three fat releases" 3 (Sink.count_kind d Event.Release_fat);
  check_int "one quiescent deflation" 1 (Sink.count_kind d Event.Deflate_quiescent);
  (* lifecycle events carry the object id so streams can be joined per
     object; deflation is attributed to the system stream *)
  Array.iter
    (fun e ->
      match e.Event.kind with
      | Event.Inflate_overflow ->
          check_int "inflation arg = object id" (Tl_heap.Obj_model.id obj) e.Event.arg
      | Event.Deflate_quiescent ->
          check_int "deflation arg = monitor tag" (Tl_heap.Obj_model.id obj) e.Event.arg;
          check_int "deflation on system stream" 0 e.Event.tid
      | _ -> ())
    (evs d);
  (* the deflation's ticket stamp must order it after the last release *)
  let seq_of kind =
    Array.fold_left
      (fun acc (e : Event.t) -> if e.Event.kind = kind then e.Event.seq else acc)
      (-1) (evs d)
  in
  check "deflation sorts after the last fat release" true
    (seq_of Event.Deflate_quiescent > seq_of Event.Release_fat);
  (* every event is a holder-stamped transition of one object: its
     ordinals count 1, 2, ... in emission order, the deflater's last *)
  Array.iteri
    (fun i ord -> check_int "dense holder ordinals" (i + 1) ord)
    d.Sink.ords;
  check "oracle accepts the single-domain stream" true
    (Oracle.ok (Oracle.check ~count_width:1 d))

let test_thin_emits_wait_and_notify () =
  let runtime = Runtime.create () in
  let sink = Sink.create ~ring_capacity:256 () in
  let ctx = Thin.create_with ~events:sink runtime in
  let env = Runtime.main_env runtime in
  let heap = H.create () in
  let obj = H.alloc heap in
  Thin.acquire ctx env obj;
  Thin.wait ~timeout:0.001 ctx env obj;
  Thin.notify ctx env obj;
  Thin.notify_all ctx env obj;
  Thin.release ctx env obj;
  let d = Sink.drain sink in
  check_int "wait inflates" 1 (Sink.count_kind d Event.Inflate_wait);
  check_int "wait op" 1 (Sink.count_kind d Event.Wait_op);
  check_int "notify op" 1 (Sink.count_kind d Event.Notify_op);
  check_int "notify-all op" 1 (Sink.count_kind d Event.Notify_all_op)

let test_cjm_emits_protocol_events () =
  let runtime = Runtime.create () in
  let sink = Sink.create ~ring_capacity:256 () in
  let ctx = Tl_cjm.Cjm.create_with ~events:sink runtime in
  let env = Runtime.main_env runtime in
  let heap = H.create () in
  let obj = H.alloc heap in
  (* acquire takes the headerless fast path (no monitor yet); wait
     forces a transient entry into existence; release with the wait
     set empty lets it evaporate — one full table lifecycle *)
  Tl_cjm.Cjm.acquire ctx env obj;
  Tl_cjm.Cjm.wait ~timeout:0.001 ctx env obj;
  Tl_cjm.Cjm.release ctx env obj;
  let d = Sink.drain sink in
  check_int "one fast acquire" 1 (Sink.count_kind d Event.Acquire_fast);
  check_int "wait creates the monitor" 1
    (Sink.count_kind d Event.Cjm_monitor_create);
  check_int "wait op" 1 (Sink.count_kind d Event.Wait_op);
  check_int "release goes through the fat path" 1
    (Sink.count_kind d Event.Release_fat);
  check_int "release evaporates the monitor" 1
    (Sink.count_kind d Event.Cjm_monitor_evaporate);
  (* lifecycle events bracket the fat window, in the drained order and
     in the object's holder-stamped ordinals *)
  let seq_of kind =
    Array.fold_left
      (fun acc (e : Event.t) -> if e.Event.kind = kind then e.Event.seq else acc)
      (-1) (evs d)
  in
  check "create sorts before the wait" true
    (seq_of Event.Cjm_monitor_create < seq_of Event.Wait_op);
  check "evaporation sorts after the fat release" true
    (seq_of Event.Cjm_monitor_evaporate > seq_of Event.Release_fat);
  let ord_of kind =
    Array.fold_left
      (fun acc (e : Event.t) -> if e.Event.kind = kind then e.Event.ord else acc)
      (-1) (evs d)
  in
  check "ordinals follow the lifecycle" true
    (ord_of Event.Acquire_fast < ord_of Event.Cjm_monitor_create
    && ord_of Event.Cjm_monitor_create < ord_of Event.Wait_op
    && ord_of Event.Wait_op < ord_of Event.Release_fat
    && ord_of Event.Release_fat < ord_of Event.Cjm_monitor_evaporate);
  Array.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Cjm_monitor_create | Event.Cjm_monitor_evaporate ->
          check_int "lifecycle arg = object id" (Tl_heap.Obj_model.id obj)
            e.Event.arg
      | _ -> ())
    (evs d);
  check "cjm oracle accepts the stream" true
    (Oracle.ok (Oracle.check ~protocol:Oracle.Cjm d));
  (* conservation: the table is empty again and the census balances *)
  check_int "no live entries" 0 (Tl_cjm.Cjm.live_entries ctx);
  check_int "one monitor created" 1 (Tl_cjm.Cjm.monitors_created ctx);
  check_int "one monitor evaporated" 1 (Tl_cjm.Cjm.monitors_evaporated ctx)

let test_runtime_and_reaper_events () =
  let runtime = Runtime.create () in
  let sink = Sink.create ~ring_capacity:256 () in
  Runtime.set_event_sink runtime sink;
  let ctx = Thin.create_with ~events:sink runtime in
  let env = Runtime.main_env runtime in
  Runtime.quiescence_point ~env runtime;
  ignore (Tl_lifecycle.Reaper.scan_once ctx);
  let d = Sink.drain sink in
  check_int "quiescence events" 1 (Sink.count_kind d Event.Quiescence);
  check_int "reaper scan event" 1 (Sink.count_kind d Event.Reaper_scan);
  check "quiescence on the announcing thread's stream" true
    (Array.exists
       (fun (e : Event.t) ->
         e.Event.kind = Event.Quiescence && e.Event.tid = env.Runtime.descriptor.Tl_runtime.Tid.index)
       (evs d))

let test_untraced_ctx_stays_silent () =
  let runtime = Runtime.create () in
  let ctx = Thin.create runtime in
  check "default ctx carries the null sink" false (Sink.enabled (Thin.events ctx));
  let env = Runtime.main_env runtime in
  let heap = H.create () in
  let obj = H.alloc heap in
  Thin.acquire ctx env obj;
  Thin.release ctx env obj;
  check_int "nothing recorded anywhere" 0 (Sink.emitted Sink.disabled)

(* --- diff --- *)

let drained_of_emits emits =
  let sink = Sink.create ~ring_capacity:64 () in
  List.iter (fun (tid, kind, arg) -> Sink.emit sink ~tid ~kind ~arg) emits;
  Sink.drain sink

let test_diff_identical () =
  let emits =
    [
      (1, Event.Acquire_fast, 7); (1, Event.Release_fast, 7); (2, Event.Inflate_overflow, 9);
    ]
  in
  let report = Diff.compare (drained_of_emits emits) (drained_of_emits emits) in
  check "identical" true (Diff.identical report);
  check "no divergence" true (report.Diff.divergence = None);
  check "no deltas" true (report.Diff.kind_deltas = []);
  check "pp says identical" true
    (let s = Format.asprintf "%a" Diff.pp report in
     String.length s >= 17 && String.sub s 0 17 = "streams identical")

let test_diff_locates_divergence () =
  let left =
    drained_of_emits
      [ (1, Event.Acquire_fast, 7); (1, Event.Release_fast, 7); (1, Event.Acquire_fast, 7) ]
  in
  let right =
    drained_of_emits
      [ (1, Event.Acquire_fast, 7); (1, Event.Release_fat, 7); (1, Event.Acquire_fast, 7) ]
  in
  let report = Diff.compare left right in
  check "diverges" false (Diff.identical report);
  (match report.Diff.divergence with
  | Some d ->
      check_int "index of first mismatch" 1 d.Diff.index;
      check "left kind" true
        (match d.Diff.left with Some e -> e.Event.kind = Event.Release_fast | None -> false);
      check "right kind" true
        (match d.Diff.right with Some e -> e.Event.kind = Event.Release_fat | None -> false)
  | None -> Alcotest.fail "expected a divergence");
  check "delta for release-fast" true
    (List.mem (Event.Release_fast, 1, 0) report.Diff.kind_deltas);
  check "delta for release-fat" true
    (List.mem (Event.Release_fat, 0, 1) report.Diff.kind_deltas)

let test_diff_empty_vs_empty () =
  let report = Diff.compare Sink.empty Sink.empty in
  check "identical" true (Diff.identical report);
  check_int "exit code 0" 0 (Diff.exit_code report);
  check_int "left events" 0 report.Diff.left_events;
  check_int "right events" 0 report.Diff.right_events

let test_diff_one_event_prefix_truncation () =
  (* right is the empty prefix of a one-event left: the divergence is
     at index 0, where right is already exhausted *)
  let left = drained_of_emits [ (1, Event.Acquire_fast, 7) ] in
  let report = Diff.compare left Sink.empty in
  check "not identical" false (Diff.identical report);
  check_int "exit code 1" 1 (Diff.exit_code report);
  (match report.Diff.divergence with
  | Some d ->
      check_int "diverges at index 0" 0 d.Diff.index;
      check "left present" true (d.Diff.left <> None);
      check "right exhausted" true (d.Diff.right = None)
  | None -> Alcotest.fail "expected a divergence");
  check "delta for the truncated kind" true
    (List.mem (Event.Acquire_fast, 1, 0) report.Diff.kind_deltas)

let test_diff_arg_only_difference () =
  (* same kinds, same tids, same length — only an arg differs.  The
     divergence is located, but the per-kind census agrees, so
     kind_deltas must stay empty (and exit still signals a diff). *)
  let left =
    drained_of_emits [ (1, Event.Acquire_fast, 7); (1, Event.Release_fast, 7) ]
  in
  let right =
    drained_of_emits [ (1, Event.Acquire_fast, 7); (1, Event.Release_fast, 8) ]
  in
  let report = Diff.compare left right in
  check "not identical" false (Diff.identical report);
  check_int "exit code 1" 1 (Diff.exit_code report);
  (match report.Diff.divergence with
  | Some d ->
      check_int "diverges at the arg mismatch" 1 d.Diff.index;
      check "left arg" true
        (match d.Diff.left with Some e -> e.Event.arg = 7 | None -> false);
      check "right arg" true
        (match d.Diff.right with Some e -> e.Event.arg = 8 | None -> false)
  | None -> Alcotest.fail "expected a divergence");
  check "no kind deltas" true (report.Diff.kind_deltas = [])

let test_diff_ord_only_difference () =
  (* the same events in the same seq order, but the holders stamped a
     different per-object order: a real divergence *)
  let stream ords =
    Sink.of_events
      (Array.of_list
         (List.mapi
            (fun seq (tid, ord) -> { Event.seq; tid; kind = Event.Acquire_fat; arg = 7; ord })
            ords))
  in
  let report = Diff.compare (stream [ (1, 1); (2, 3) ]) (stream [ (1, 1); (2, 2) ]) in
  check "not identical" false (Diff.identical report);
  (match report.Diff.divergence with
  | Some d -> check_int "diverges at the ordinal mismatch" 1 d.Diff.index
  | None -> Alcotest.fail "expected a divergence");
  check "no kind deltas" true (report.Diff.kind_deltas = [])

let test_diff_length_mismatch () =
  let left = drained_of_emits [ (1, Event.Acquire_fast, 7); (1, Event.Release_fast, 7) ] in
  let right = drained_of_emits [ (1, Event.Acquire_fast, 7) ] in
  let report = Diff.compare left right in
  check "diverges" false (Diff.identical report);
  match report.Diff.divergence with
  | Some d ->
      check_int "diverges at the shorter stream's end" 1 d.Diff.index;
      check "left present" true (d.Diff.left <> None);
      check "right exhausted" true (d.Diff.right = None)
  | None -> Alcotest.fail "expected a divergence"

let () =
  Alcotest.run "events"
    [
      ( "kinds",
        [
          Alcotest.test_case "int roundtrip" `Quick test_kind_int_roundtrip;
          Alcotest.test_case "name roundtrip" `Quick test_kind_name_roundtrip;
          Alcotest.test_case "kind masks" `Quick test_kind_masks;
        ] );
      ( "ring",
        [
          Alcotest.test_case "overflow drops a suffix" `Quick test_ring_overflow_drops_suffix;
          Alcotest.test_case "wide stamps survive packing" `Quick test_ring_packs_wide_stamps;
          Alcotest.test_case "zero capacity rejected" `Quick test_ring_rejects_zero_capacity;
          QCheck_alcotest.to_alcotest prop_ring_grows_with_use;
        ] );
      ( "sink",
        [
          Alcotest.test_case "disabled is inert" `Quick test_sink_disabled_is_inert;
          Alcotest.test_case "merge within and across epochs" `Quick
            test_sink_merge_within_and_across_epochs;
          Alcotest.test_case "out-of-range tids rejected" `Quick
            test_sink_rejects_out_of_range_tids;
          Alcotest.test_case "drops reported per tid" `Quick test_sink_reports_drops_per_tid;
          Alcotest.test_case "drops leave no seq holes" `Quick test_drops_leave_no_seq_holes;
          Alcotest.test_case "one-slot ring satisfies oracle" `Quick
            test_sink_one_slot_ring_satisfies_oracle;
          Alcotest.test_case "oracle density is drop-aware" `Quick
            test_oracle_drop_aware_density;
          Alcotest.test_case "system events interleave exactly" `Quick
            test_system_events_interleave_exactly;
          Alcotest.test_case "multithreaded emit" `Quick test_sink_multithreaded_emit;
          QCheck_alcotest.to_alcotest prop_drain_reconstruction_is_legal;
          QCheck_alcotest.to_alcotest prop_merge_drain_matches_reference_sort;
          QCheck_alcotest.to_alcotest prop_columns_round_trip;
          Alcotest.test_case "unpackable tid rejected" `Quick
            test_of_events_rejects_unpackable_tid;
          Alcotest.test_case "drain and verdict allocate no events" `Quick
            test_drain_and_verdict_allocate_no_events;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "1-in-N keeps whole objects" `Quick
            test_sampling_one_in_n_keeps_whole_objects;
          Alcotest.test_case "contended-only" `Quick test_sampling_contended_only;
        ] );
      ( "codec",
        [
          Alcotest.test_case "golden encoding" `Quick test_codec_golden;
          Alcotest.test_case "canonical roundtrip" `Quick test_codec_roundtrip_is_canonical;
          Alcotest.test_case "boundary args round trip" `Quick
            test_codec_boundary_args_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_codec_parse_errors;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        ] );
      ( "codec-bin",
        [
          Alcotest.test_case "golden empty" `Quick test_codec_bin_golden_empty;
          Alcotest.test_case "compact vs text" `Quick test_codec_bin_compact;
          Alcotest.test_case "parse errors" `Quick test_codec_bin_parse_errors;
          QCheck_alcotest.to_alcotest prop_codec_bin_roundtrip;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "thin protocol events" `Quick test_thin_emits_protocol_events;
          Alcotest.test_case "wait and notify events" `Quick test_thin_emits_wait_and_notify;
          Alcotest.test_case "cjm protocol events" `Quick
            test_cjm_emits_protocol_events;
          Alcotest.test_case "runtime and reaper events" `Quick test_runtime_and_reaper_events;
          Alcotest.test_case "untraced ctx stays silent" `Quick test_untraced_ctx_stays_silent;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical streams" `Quick test_diff_identical;
          Alcotest.test_case "first divergence located" `Quick test_diff_locates_divergence;
          Alcotest.test_case "length mismatch" `Quick test_diff_length_mismatch;
          Alcotest.test_case "empty vs empty" `Quick test_diff_empty_vs_empty;
          Alcotest.test_case "one-event prefix truncation" `Quick
            test_diff_one_event_prefix_truncation;
          Alcotest.test_case "arg-only difference" `Quick test_diff_arg_only_difference;
          Alcotest.test_case "ordinal-only difference" `Quick test_diff_ord_only_difference;
        ] );
    ]
