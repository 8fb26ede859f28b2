(* The streaming protocol oracle: hand-written unit streams for every
   violation class, clean-stream acceptance (hand-written, generated,
   and real replay streams single- and multi-domain), the adversarial
   mutation property, the oracle against lib/sim's seeded protocol
   bugs, the online residency monitor (units + exact cross-check
   against Policy_lab's offline integral), and the stream-level entry
   points in Tl_core.Validate. *)

open Tl_events
open Tl_workload
module Ctl = Tl_lifecycle.Controller
module Machine = Tl_sim.Machine
module Thinmodel = Tl_sim.Thinmodel
module Stream_gen = Tl_test_helpers.Stream_gen
module Validate = Tl_core.Validate
module Lock_stats = Tl_core.Lock_stats
module Header = Tl_heap.Header

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ev ?(ord = 0) seq tid kind arg = { Event.seq; tid; kind; arg; ord }

let dr evs = { Sink.events = Array.of_list evs; dropped = [] }

(* seq-dense stream from (tid, kind, arg) triples, its ordinals stamped
   in list order: the list is the order the objects' states changed *)
let stream triples =
  { Sink.events = Stream_gen.stamp (Array.of_list (List.map (fun (tid, kind, arg) -> ev 0 tid kind arg) triples));
    dropped = [] }

let report_str r = Format.asprintf "%a" Oracle.pp r

let assert_clean ?count_width ?require_unlocked_end d =
  let r = Oracle.check ?count_width ?require_unlocked_end d in
  if not (Oracle.ok r) then Alcotest.failf "expected clean, got: %s" (report_str r);
  check_int "exit code 0" 0 (Oracle.exit_code r)

let assert_class ?count_width ?seq cls d =
  let r = Oracle.check ?count_width d in
  check_int "exit code 1" 1 (Oracle.exit_code r);
  match Oracle.find r cls with
  | None ->
      Alcotest.failf "expected %s, got: %s" (Oracle.class_name cls) (report_str r)
  | Some v -> (
      match seq with
      | None -> ()
      | Some s -> check_int ("seq of " ^ Oracle.class_name cls) s v.Oracle.seq)

(* --- one unit stream per violation class --- *)

let test_unlock_without_lock () =
  assert_class ~seq:0 Oracle.Unlock_without_lock
    (stream [ (1, Event.Release_fast, 9) ])

let test_ownership_violation () =
  assert_class ~seq:1 Oracle.Ownership_violation
    (stream [ (1, Event.Acquire_fast, 7); (2, Event.Release_fast, 7) ])

let test_count_overflow_without_inflation () =
  (* count_width 1 caps thin depth at 2: the third acquire must
     overflow-inflate, not keep nesting *)
  assert_class ~count_width:1 ~seq:2 Oracle.Count_error
    (stream
       [
         (1, Event.Acquire_fast, 2);
         (1, Event.Acquire_nested, 2);
         (1, Event.Acquire_nested, 2);
       ])

let test_count_error_fast_reacquire () =
  assert_class ~seq:1 Oracle.Count_error
    (stream [ (1, Event.Acquire_fast, 2); (1, Event.Acquire_fast, 2) ])

let test_count_underflow () =
  (* a nested release at depth 1 would drive the count below zero —
     the release must take the fast path *)
  assert_class ~seq:1 Oracle.Count_error
    (stream [ (1, Event.Acquire_fast, 2); (1, Event.Release_nested, 2) ])

let test_reinflation_of_retired () =
  assert_class ~seq:3 Oracle.Reinflation_of_retired
    (stream
       [
         (1, Event.Acquire_fast, 4);
         (1, Event.Inflate_overflow, 4);
         (1, Event.Acquire_fat, 4);
         (1, Event.Inflate_overflow, 4);
       ])

let test_lost_wakeup () =
  (* t1 parks with one undelivered notification outstanding and never
     exits: flagged at end of stream (seq -1) *)
  assert_class ~seq:(-1) Oracle.Lost_wakeup
    (stream
       [
         (1, Event.Acquire_fast, 5);
         (1, Event.Inflate_wait, 5);
         (1, Event.Wait_op, 5);
         (2, Event.Acquire_fat, 5);
         (2, Event.Notify_op, 5);
         (2, Event.Release_fat, 5);
       ])

let test_deflation_without_handshake () =
  assert_class ~seq:2 Oracle.Deflation_without_handshake
    (stream
       [
         (1, Event.Acquire_fast, 3);
         (1, Event.Inflate_wait, 3);
         (0, Event.Deflate_quiescent, 3);
       ])

let test_deflation_with_waiters () =
  assert_class ~seq:3 Oracle.Deflation_without_handshake
    (stream
       [
         (1, Event.Acquire_fast, 3);
         (1, Event.Inflate_wait, 3);
         (1, Event.Wait_op, 3);
         (0, Event.Deflate_concurrent, 3);
       ])

let test_stale_handle () =
  assert_class ~seq:0 Oracle.Stale_handle (stream [ (1, Event.Acquire_fat, 6) ])

let test_malformed_seq_gap () =
  assert_class Oracle.Stream_malformed
    (dr [ ev ~ord:1 0 1 Event.Acquire_fast 1; ev ~ord:2 2 1 Event.Release_fast 1 ])

let test_malformed_duplicate_seq () =
  assert_class Oracle.Stream_malformed
    (dr [ ev ~ord:1 0 1 Event.Acquire_fast 1; ev ~ord:2 0 1 Event.Release_fast 1 ])

let test_malformed_duplicate_holder_ordinal () =
  (* two threads both claim ordinal 1 of object 1: two holders at once,
     or a stamp taken without holding the object *)
  assert_class ~seq:2 Oracle.Stream_malformed
    (dr
       [
         ev ~ord:1 0 1 Event.Acquire_fast 1;
         ev ~ord:2 1 1 Event.Release_fast 1;
         ev ~ord:1 2 2 Event.Acquire_fast 1;
         ev ~ord:3 3 2 Event.Release_fast 1;
       ]);
  (* observations share ordinals freely: both read ordinal 1 *)
  assert_clean
    (dr
       [
         ev ~ord:1 0 1 Event.Acquire_fast 1;
         ev ~ord:1 1 2 Event.Contended_begin 1;
         ev ~ord:1 2 3 Event.Contended_begin 1;
         ev ~ord:2 3 1 Event.Release_fast 1;
         ev ~ord:3 4 2 Event.Acquire_fast 1;
         ev ~ord:3 5 2 Event.Contended_end 1;
         ev ~ord:4 6 2 Event.Release_fast 1;
         ev ~ord:5 7 3 Event.Acquire_fast 1;
         ev ~ord:5 8 3 Event.Contended_end 1;
         ev ~ord:6 9 3 Event.Release_fast 1;
       ])

let test_malformed_tid_ordinals_backwards () =
  (* thread 1's release (seq 3) carries a smaller ordinal than its own
     earlier acquire of object 2 (seq 0): no holder order puts a
     thread's later event first *)
  assert_class ~seq:3 Oracle.Stream_malformed
    (dr
       [
         ev ~ord:3 0 1 Event.Acquire_fast 2;
         ev ~ord:1 1 2 Event.Acquire_fast 2;
         ev ~ord:2 2 2 Event.Release_fast 2;
         ev ~ord:2 3 1 Event.Contended_end 2;
         ev ~ord:4 4 1 Event.Release_fast 2;
       ])

let test_malformed_tid0_thread_path () =
  assert_class ~seq:0 Oracle.Stream_malformed
    (stream [ (0, Event.Acquire_fast, 1) ])

let test_malformed_held_at_end () =
  let d = stream [ (1, Event.Acquire_fast, 1) ] in
  assert_class ~seq:(-1) Oracle.Stream_malformed d;
  (* tolerated when the stream is declared a prefix *)
  assert_clean ~require_unlocked_end:false d

(* --- clean streams the automaton must accept --- *)

let test_accepts_thin_cycle () =
  let d =
    stream
      [
        (1, Event.Acquire_fast, 1);
        (1, Event.Acquire_nested, 1);
        (1, Event.Notify_op, 1);
        (1, Event.Release_nested, 1);
        (1, Event.Release_fast, 1);
        (2, Event.Acquire_fast, 1);
        (2, Event.Release_fast, 1);
      ]
  in
  assert_clean d

let test_accepts_full_lifecycle () =
  (* inflate for contention, wait/notify with the invisible resume,
     deflate once idle, re-inflate fresh *)
  let d =
    stream
      [
        (1, Event.Acquire_fast, 1);
        (2, Event.Contended_begin, 1);
        (1, Event.Release_fast, 1);
        (2, Event.Inflate_contention, 1);
        (2, Event.Acquire_fat, 1);
        (2, Event.Contended_end, 1);
        (2, Event.Wait_op, 1);
        (3, Event.Acquire_fat, 1);
        (3, Event.Notify_all_op, 1);
        (3, Event.Release_fat, 1);
        (2, Event.Release_fat, 1);
        (* waiter 2 resumed invisibly, exits its wait *)
        (0, Event.Deflate_quiescent, 1);
        (1, Event.Acquire_fast, 1);
        (1, Event.Release_fast, 1);
        (0, Event.Reaper_scan, 1);
        (1, Event.Quiescence, 1);
      ]
  in
  assert_clean d

let test_accepts_timed_wait_expiry () =
  (* the waiter resumes without any notify credit: a timeout, legal *)
  assert_clean
    (stream
       [
         (1, Event.Acquire_fast, 1);
         (1, Event.Inflate_wait, 1);
         (1, Event.Wait_op, 1);
         (1, Event.Release_fat, 1);
       ])

let test_relaxed_absorbs_emit_window_skew () =
  (* t2's seq predates t1's although t1's episode came first: the
     oracle follows the ordinals the holders stamped, not seq *)
  let skewed =
    [
      ev ~ord:3 0 2 Event.Acquire_fast 1;
      ev ~ord:1 1 1 Event.Acquire_fast 1;
      ev ~ord:2 2 1 Event.Release_fast 1;
      ev ~ord:4 3 2 Event.Release_fast 1;
    ]
  in
  assert_clean (dr skewed);
  (* the same seq order with ordinals that agree with it is a real
     ownership violation: t1 acquires while t2 holds *)
  assert_class ~seq:1 Oracle.Ownership_violation
    { Sink.events = Stream_gen.stamp (Array.of_list skewed); dropped = [] }

let test_empty_stream_is_clean () =
  assert_clean Sink.empty;
  let r = Oracle.check Sink.empty in
  check_int "no objects" 0 r.Oracle.objects

(* --- generated streams: acceptance + mutation property --- *)

let spec_gen =
  QCheck.Gen.(
    map
      (fun (threads, objects, steps, seed) ->
        { Stream_gen.threads; objects; steps; seed })
      (quad (int_range 1 4) (int_range 1 6) (int_range 0 80)
         (int_bound 1_000_000)))

let spec_print (s : Stream_gen.spec) =
  Printf.sprintf "{threads=%d; objects=%d; steps=%d; seed=%d}" s.threads
    s.objects s.steps s.seed

let spec_arb = QCheck.make ~print:spec_print spec_gen

let prop_generated_streams_accepted =
  QCheck.Test.make ~count:250 ~name:"oracle accepts every well-formed stream"
    spec_arb (fun spec ->
      let g = Stream_gen.generate spec in
      let d = Stream_gen.drained g in
      Oracle.ok (Oracle.check d))

(* The mutation of [spec]'s stream (its name, [None] when the stream
   offers no site) is flagged with its expected class; [Error] names the
   mutation and what was found instead. *)
let mutation_flagged spec =
  let g = Stream_gen.generate spec in
  match Stream_gen.mutate ~seed:(spec.Stream_gen.seed + 1) g with
  | None -> Ok None
  | Some m -> (
      let r = Oracle.check m.Stream_gen.m_stream in
      match Oracle.find r m.Stream_gen.m_expected with
      | Some _ -> Ok (Some m.Stream_gen.m_name)
      | None ->
          Error
            (Printf.sprintf "mutation %s: expected %s, got %s" m.Stream_gen.m_name
               (Oracle.class_name m.Stream_gen.m_expected)
               (report_str r)))

let prop_mutations_flagged =
  QCheck.Test.make ~count:500
    ~name:"oracle flags every mutation with the expected class" spec_arb
    (fun spec ->
      match mutation_flagged spec with
      | Ok _ -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* Specs whose mutation retags a deflation handshake aborted only by a
   queued entrant: once expected as deflation-without-handshake, which
   such a stream cannot show (see [Stream_gen.queued_aborts]). *)
let queued_abort_specs =
  [
    { Stream_gen.threads = 2; objects = 1; steps = 20; seed = 289879 };
    { Stream_gen.threads = 2; objects = 1; steps = 79; seed = 445173 };
    { Stream_gen.threads = 2; objects = 1; steps = 33; seed = 685612 };
    { Stream_gen.threads = 3; objects = 1; steps = 65; seed = 773602 };
    { Stream_gen.threads = 4; objects = 1; steps = 35; seed = 896266 };
  ]

let test_pinned_mutation spec () =
  match mutation_flagged spec with
  | Ok (Some "retag-queued-abort-as-deflated") -> ()
  | Ok m ->
      Alcotest.failf "%s: mutation %s, not the queued-entrant abort" (spec_print spec)
        (Option.value ~default:"(none)" m)
  | Error msg -> Alcotest.failf "%s: %s" (spec_print spec) msg

let test_mutation_catalogue_covers_all_classes () =
  (* walk seeds until every violation class has been produced by some
     mutation — the property above then checks each is detected *)
  let seen = Hashtbl.create 8 in
  let all =
    [
      Oracle.Unlock_without_lock;
      Oracle.Ownership_violation;
      Oracle.Count_error;
      Oracle.Reinflation_of_retired;
      Oracle.Lost_wakeup;
      Oracle.Deflation_without_handshake;
      Oracle.Stale_handle;
      Oracle.Stream_malformed;
    ]
  in
  let seed = ref 0 in
  while Hashtbl.length seen < List.length all && !seed < 4_000 do
    let spec =
      { Stream_gen.threads = 3; objects = 4; steps = 70; seed = !seed }
    in
    let g = Stream_gen.generate spec in
    (match Stream_gen.mutate ~seed:(!seed * 7 + 1) g with
    | None -> ()
    | Some m -> Hashtbl.replace seen m.Stream_gen.m_expected ());
    incr seed
  done;
  List.iter
    (fun cls ->
      check ("catalogue produces " ^ Oracle.class_name cls) true
        (Hashtbl.mem seen cls))
    all

(* --- the oracle against lib/sim's seeded bugs --- *)

let inflated_idle_seed =
  [ (Thinmodel.Addr.lockword, Header.inflated_word ~hdr:0 ~monitor_index:1) ]

(* model labels are "ev <tid> <kind-name>" on the single model object
   (id 1); an optional prefix brings the automaton to the seeded
   start state *)
let sim_stream ?(prefix = []) labels =
  let evs = ref [] in
  let n = ref 0 in
  let push tid kind =
    evs := ev !n tid kind 1 :: !evs;
    incr n
  in
  List.iter (fun (tid, kind) -> push tid kind) prefix;
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "ev"; tid; name ] -> (
          match Event.kind_of_name name with
          | Some kind -> push (int_of_string tid) kind
          | None -> Alcotest.failf "unknown event in label %S" l)
      | _ -> Alcotest.failf "unparseable label %S" l)
    labels;
  { Sink.events = Stream_gen.stamp (Array.of_list (List.rev !evs)); dropped = [] }

(* the seeded world starts with a live idle monitor: a synthetic
   inflate-confirm-release by a pseudo thread reproduces that state *)
let fat_seed_prefix =
  [
    (9, Event.Inflate_contention);
    (9, Event.Acquire_fat);
    (9, Event.Release_fat);
  ]

let test_sim_correct_deflater_streams_clean () =
  for seed = 0 to 149 do
    let t =
      Machine.run_random ~seed ~mem_size:Thinmodel.Addr.mem_size
        ~seed_mem:inflated_idle_seed
        [|
          Thinmodel.worker ~tid:1 ~iterations:2 ~trace:true ~spin_budget:6 ();
          Thinmodel.worker ~tid:2 ~iterations:2 ~trace:true ~spin_budget:6 ();
          Thinmodel.deflater ~trace:true ();
        |]
    in
    let d = sim_stream ~prefix:fat_seed_prefix t.Machine.t_labels in
    let r = Oracle.check d in
    if not (Oracle.ok r) then
      Alcotest.failf "seed %d rejected: %s" seed (report_str r)
  done

let test_sim_buggy_deflater_flagged () =
  let flagged = ref 0 and handshake = ref 0 and stale = ref 0 in
  for seed = 0 to 299 do
    let t =
      Machine.run_random ~seed ~mem_size:Thinmodel.Addr.mem_size
        ~seed_mem:inflated_idle_seed
        [|
          Thinmodel.worker ~tid:1 ~iterations:2 ~lenient:true ~trace:true
            ~spin_budget:6 ();
          Thinmodel.worker ~tid:2 ~iterations:2 ~lenient:true ~trace:true
            ~spin_budget:6 ();
          Thinmodel.buggy_no_handshake_deflater ~trace:true ();
        |]
    in
    let d = sim_stream ~prefix:fat_seed_prefix t.Machine.t_labels in
    let r = Oracle.check d in
    if not (Oracle.ok r) then begin
      incr flagged;
      List.iter
        (fun (v : Oracle.violation) ->
          match v.Oracle.cls with
          | Oracle.Deflation_without_handshake -> incr handshake
          | Oracle.Stale_handle -> incr stale
          | c ->
              Alcotest.failf "seed %d: unexpected class %s in %s" seed
                (Oracle.class_name c) (report_str r))
        r.Oracle.violations
    end
  done;
  check "some schedules flagged" true (!flagged > 0);
  check "deflation-without-handshake observed" true (!handshake > 0)

let test_sim_owner_skip_unlock_flagged_every_schedule () =
  let classes = [ Oracle.Unlock_without_lock; Oracle.Ownership_violation ] in
  for seed = 0 to 199 do
    let t =
      Machine.run_random ~seed ~mem_size:Thinmodel.Addr.mem_size
        [|
          Thinmodel.buggy_owner_skip_unlock_worker ~tid:1 ~iterations:2
            ~trace:true ~spin_budget:6 ();
          Thinmodel.buggy_owner_skip_unlock_worker ~tid:2 ~iterations:2
            ~trace:true ~spin_budget:6 ();
        |]
    in
    let d = sim_stream t.Machine.t_labels in
    let r = Oracle.check d in
    if Oracle.ok r then Alcotest.failf "seed %d: owner-skip stream accepted" seed;
    if not (List.exists (fun c -> Oracle.find r c <> None) classes) then
      Alcotest.failf "seed %d: no unlock/ownership finding in %s" seed
        (report_str r)
  done

let test_sim_owner_skip_solo_is_unlock_without_lock () =
  let t =
    Machine.run_random ~seed:5 ~mem_size:Thinmodel.Addr.mem_size
      [|
        Thinmodel.buggy_owner_skip_unlock_worker ~tid:1 ~iterations:1
          ~trace:true ~spin_budget:4 ();
      |]
  in
  assert_class Oracle.Unlock_without_lock (sim_stream t.Machine.t_labels)

(* --- real replay streams: acceptance + residency cross-check --- *)

let policy name = Option.get (Tl_lifecycle.Policy.of_string name)
let reap name = Policy_lab.Reap_fixed (policy name)
let thin = Tl_baselines.Registry.find_entry_exn "thin"

(* The thin scheme whose fat monitors use [backend]. *)
let thin_on backend = Option.get (Tl_baselines.Registry.with_fat_backend thin backend)

let trace_of name =
  Tracegen.generate ~seed:1998 ~max_syncs:6_000
    (Option.get (Profiles.find name))

let test_replay_stream_accepted name () =
  let d = (Policy_lab.replay_traced ~reap:(reap "always-idle") thin (trace_of name)).drained in
  check "no drops" true (d.Sink.dropped = []);
  let r = Oracle.check ~count_width:1 d in
  if not (Oracle.ok r) then
    Alcotest.failf "%s replay rejected: %s" name (report_str r)

let test_replay_par_stream_accepted name domains mode () =
  let _res, { Policy_lab.drained = d; _ } =
    Policy_lab.replay_traced_par ~domains ~mode ~reap:(reap "always-idle") thin (trace_of name)
  in
  check "no drops" true (d.Sink.dropped = []);
  let r = Oracle.check ~count_width:1 d in
  if not (Oracle.ok r) then
    Alcotest.failf "%s par replay (%d domains) rejected: %s" name domains
      (report_str r)

(* Same acceptance checks with a non-default contended-path backend:
   hapax admission must emit streams the protocol oracle verifies like
   the parker entry queue's. *)
let test_replay_backend_stream_accepted name backend () =
  let d =
    (Policy_lab.replay_traced ~reap:(reap "always-idle") (thin_on backend) (trace_of name))
      .drained
  in
  check "no drops" true (d.Sink.dropped = []);
  let r = Oracle.check ~count_width:1 d in
  if not (Oracle.ok r) then
    Alcotest.failf "%s %s replay rejected: %s" name
      (Tl_monitor.Fatlock.backend_name backend)
      (report_str r)

let test_replay_par_backend_stream_accepted name domains mode backend () =
  let _res, { Policy_lab.drained = d; _ } =
    Policy_lab.replay_traced_par ~domains ~mode ~reap:(reap "always-idle") (thin_on backend)
      (trace_of name)
  in
  check "no drops" true (d.Sink.dropped = []);
  let r = Oracle.check ~count_width:1 d in
  if not (Oracle.ok r) then
    Alcotest.failf "%s %s par replay (%d domains) rejected: %s" name
      (Tl_monitor.Fatlock.backend_name backend)
      domains (report_str r)

(* --- holder stamping under real contention --- *)

(* Two domains hammer one object through every transition that stamps
   an ordinal — for thin locks the fast path, contention inflation, fat
   handoff on each contended-path backend, and deflations (and aborted
   handshakes) racing the lock holders; for CJM the stripe-held inline
   path and monitor creation and evaporation.  If any site stamped
   outside its hold (say a release stamped after its releasing store),
   the other domain's next stamp could take the same ordinal or sort
   ahead of it, and the oracle would flag the stream. *)
let test_contended_object_stamps_clean (entry : Tl_baselines.Registry.entry) () =
  let runtime = Tl_runtime.Runtime.create () in
  let sink = Sink.create ~ring_capacity:400_000 ~system_capacity:100_000 () in
  let scheme = entry.make ~events:sink runtime in
  let obj = Tl_heap.Heap.alloc (Tl_heap.Heap.create ()) in
  let ready = Atomic.make 0 in
  Tl_runtime.Runtime.run_parallel ~backend:Tl_runtime.Runtime.Domain_backend runtime 2
    (fun i env ->
      (* start together, or one domain finishes before the other runs *)
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      for k = 1 to 50_000 do
        scheme.acquire env obj;
        scheme.release env obj;
        if (k + i) mod 8 = 0 then ignore (scheme.deflate_idle obj : bool)
      done);
  let d = Sink.drain sink in
  check "no drops" true (d.Sink.dropped = []);
  let r = (Option.get scheme.verify) d in
  if not (Oracle.ok r) then Alcotest.failf "expected clean, got: %s" (report_str r)

(* --- Policy_switch events in verified streams --- *)

let switch_arg ?(explore = false) ~shard ~from_policy ~to_policy ~score () =
  Ctl.pack_switch { Ctl.shard; from_policy; to_policy; score; explore }

let test_policy_switch_mid_stream_accepted () =
  (* controller decisions landing mid-run — one of them between an
     acquire and its release on a fat monitor: a non-routable system
     event, invisible to the object automata *)
  let d =
    stream
      [
        (1, Event.Acquire_fast, 1);
        ( 0,
          Event.Policy_switch,
          switch_arg ~shard:3 ~from_policy:2 ~to_policy:3 ~score:410 () );
        (1, Event.Inflate_wait, 1);
        (1, Event.Wait_op, 1);
        ( 0,
          Event.Policy_switch,
          switch_arg ~explore:true ~shard:0 ~from_policy:0 ~to_policy:3
            ~score:0 () );
        (1, Event.Release_fat, 1);
        (0, Event.Deflate_quiescent, 1);
        (1, Event.Quiescence, 1);
      ]
  in
  assert_clean d

(* A controlled replay: the stream carries the controller's actual
   mid-run decisions, and must verify clean at every domain count. *)
let controlled_reap =
  Policy_lab.Reap_controlled
    { Ctl.default_config with Ctl.epoch_scans = 1; patience = 1 }

let test_replay_par_controlled_accepted name domains mode () =
  let _res, { Policy_lab.controller; drained = d; _ } =
    Policy_lab.replay_traced_par ~domains ~mode ~reap:controlled_reap thin (trace_of name)
  in
  check "no drops" true (d.Sink.dropped = []);
  let controller =
    match controller with
    | Some c -> c
    | None -> Alcotest.fail "controlled replay returned no controller"
  in
  let n = Array.length d.Sink.events in
  let switch_positions =
    Array.fold_right
      (fun (e : Event.t) acc ->
        if e.Event.kind = Event.Policy_switch then e.Event.seq :: acc else acc)
      d.Sink.events []
  in
  check "stream carries policy switches" true (switch_positions <> []);
  check "switches land mid-run, not at the edges" true
    (List.exists (fun s -> s > 0 && s < n - 1) switch_positions);
  check_int "trace agrees with the controller's own count"
    (List.length switch_positions)
    (Ctl.switches_total controller);
  (* every traced arg unpacks to a well-formed ladder move *)
  Array.iter
    (fun (e : Event.t) ->
      if e.Event.kind = Event.Policy_switch then begin
        let sw = Ctl.unpack_switch e.Event.arg in
        check "from-policy on the ladder" true
          (sw.Ctl.from_policy >= 0 && sw.Ctl.from_policy < Ctl.n_policies);
        check "to-policy on the ladder" true
          (sw.Ctl.to_policy >= 0 && sw.Ctl.to_policy < Ctl.n_policies);
        check "a switch moves" true (sw.Ctl.from_policy <> sw.Ctl.to_policy)
      end)
    d.Sink.events;
  assert_clean ~count_width:1 d

(* The residency summary reads inflations, deflations and aborted
   handshakes off the event stream; the scheme counts the same
   transitions in its own statistics during the same replay.  The two
   are recorded on different paths (an event per transition, a counter
   bump per transition), so a transition that emits no event, or one
   counted twice, shows up here. *)
let test_residency_matches_scheme_counters name pname () =
  let replayed = Policy_lab.replay_traced ~reap:(reap pname) thin (trace_of name) in
  let s = Residency.of_drained replayed.drained in
  let stats = replayed.scheme.stats () in
  let extra key = Option.value ~default:0 (List.assoc_opt key stats.Lock_stats.extra) in
  check "drained without drops" true (replayed.drained.Sink.dropped = []);
  check_int
    (Printf.sprintf "%s/%s inflations" name pname)
    (Lock_stats.total_inflations stats) s.Residency.inflations;
  check_int
    (Printf.sprintf "%s/%s deflations" name pname)
    stats.Lock_stats.deflations s.Residency.deflations;
  check_int
    (Printf.sprintf "%s/%s aborted handshakes" name pname)
    (extra "deflation.aborted_handshakes") s.Residency.aborted

(* The replays above abort no handshake, so they compare that count only
   as 0 = 0.  One deterministic abort: a deflation attempted while the
   owner still holds the monitor an overflow inflated. *)
let test_residency_counts_an_aborted_handshake () =
  let module Thin = Tl_core.Thin in
  let runtime = Tl_runtime.Runtime.create () in
  let sink = Sink.create () in
  let ctx =
    Thin.create_with ~config:{ Thin.default_config with count_width = 1 } ~events:sink runtime
  in
  let env = Tl_runtime.Runtime.main_env runtime in
  let obj = Tl_heap.Heap.alloc (Tl_heap.Heap.create ()) in
  (* a 1-bit count holds two locks; the third overflows into a monitor *)
  for _ = 1 to 3 do
    Thin.acquire ctx env obj
  done;
  check "inflated" true (Header.is_inflated (Thin.lock_word obj));
  check "held monitor turns the deflater away" true
    (Thin.deflate_obj ctx ~cause:`Quiescent obj = `Busy);
  for _ = 1 to 3 do
    Thin.release ctx env obj
  done;
  let d = Sink.drain sink in
  assert_clean ~count_width:1 d;
  let in_stream =
    Array.fold_left
      (fun n (e : Event.t) -> if e.Event.kind = Event.Deflate_aborted then n + 1 else n)
      0 d.Sink.events
  in
  let stats = Lock_stats.snapshot (Thin.stats ctx) in
  check_int "Deflate_aborted events" 1 in_stream;
  check_int "residency aborted" 1 (Residency.of_drained d).Residency.aborted;
  check_int "deflation.aborted_handshakes" 1
    (Option.value ~default:0 (List.assoc_opt "deflation.aborted_handshakes" stats.Lock_stats.extra))

(* --- residency monitor units --- *)

let test_residency_empty () =
  let s = Residency.of_drained Sink.empty in
  check_int "events" 0 s.Residency.events;
  check "no area" true (s.Residency.fat_area = 0.0);
  check "no residency" true (s.Residency.fat_residency = 0.0);
  check_int "live" 0 s.Residency.live_now;
  check "no hottest" true (s.Residency.hottest = None)

let test_residency_integral_and_dwell () =
  (* one monitor live from seq 1 to seq 5 over a span of 6: area 4,
     residency 4/6; dwell 4 lands in bucket 2 = [4, 8) *)
  let s =
    Residency.of_drained
      (stream
         [
           (1, Event.Acquire_fast, 1);
           (1, Event.Inflate_wait, 1);
           (1, Event.Wait_op, 1);
           (2, Event.Acquire_fat, 1);
           (2, Event.Notify_all_op, 1);
           (0, Event.Deflate_concurrent, 1);
           (1, Event.Quiescence, 1);
         ])
  in
  check_int "events" 7 s.Residency.events;
  check_int "span" 6 s.Residency.span;
  check "area" true (s.Residency.fat_area = 4.0);
  check "residency" true (s.Residency.fat_residency = 4.0 /. 6.0);
  check_int "inflations" 1 s.Residency.inflations;
  check_int "deflations" 1 s.Residency.deflations;
  check_int "live now" 0 s.Residency.live_now;
  check_int "live peak" 1 s.Residency.live_peak;
  check_int "dwell bucket 2" 1 s.Residency.dwell.(2);
  check_int "dwell total" 1 (Array.fold_left ( + ) 0 s.Residency.dwell)

let test_residency_peak_reinflation_hottest () =
  let s =
    Residency.of_drained
      (stream
         [
           (1, Event.Acquire_fast, 1);
           (1, Event.Inflate_overflow, 1);
           (1, Event.Acquire_fat, 1);
           (2, Event.Contended_begin, 2);
           (2, Event.Contended_begin, 2);
           (3, Event.Contended_begin, 3);
           (1, Event.Inflate_contention, 2);
           (1, Event.Acquire_fat, 2);
           (0, Event.Deflate_aborted, 1);
           (1, Event.Release_fat, 2);
           (1, Event.Release_fat, 1);
           (0, Event.Deflate_quiescent, 1);
           (1, Event.Inflate_contention, 1);
           (1, Event.Acquire_fat, 1);
         ])
  in
  check_int "live peak" 2 s.Residency.live_peak;
  check_int "live now" 2 s.Residency.live_now;
  check_int "reinflations" 1 s.Residency.reinflations;
  check_int "aborted" 1 s.Residency.aborted;
  check_int "contended objects" 2 s.Residency.contended_objects;
  check_int "contended episodes" 3 s.Residency.contended_episodes;
  check "hottest is object 2" true (s.Residency.hottest = Some (2, 2));
  check_int "open monitors" 2 (List.length s.Residency.open_monitors)

(* --- residency edge cases, pinned against hand-computed integrals --- *)

(* A monitor born and evaporated within one drain window: neither the
   summary before the window nor the one after ever shows it live, yet
   the window's integral, dwell histogram and counters must all book
   its one-tick lifetime.  Area accumulates [live * Δseq] BEFORE each
   event applies, so the inflate..deflate gap of 1 tick at live=1
   contributes exactly 1.0. *)
let test_residency_evaporates_within_one_drain_window () =
  let t = Residency.create () in
  Residency.feed t (ev 0 1 Event.Acquire_fast 7);
  let before = Residency.summary t in
  check_int "not live before the window" 0 before.Residency.live_now;
  check_int "no inflations yet" 0 before.Residency.inflations;
  (* the whole fat lifetime lands inside one window *)
  Residency.feed t (ev 1 1 Event.Inflate_overflow 7);
  Residency.feed t (ev 2 0 Event.Deflate_quiescent 7);
  let after = Residency.summary t in
  check_int "not live after either" 0 after.Residency.live_now;
  check_int "inflation booked" 1 after.Residency.inflations;
  check_int "deflation booked" 1 after.Residency.deflations;
  check_int "peak caught the transient" 1 after.Residency.live_peak;
  (* area: seq 0->1 at live 0 contributes 0, seq 1->2 at live 1
     contributes 1; span 2 *)
  check "area is exactly 1.0" true (after.Residency.fat_area = 1.0);
  check "residency 1/2" true (after.Residency.fat_residency = 0.5);
  (* dwell 2-1=1 tick: bucket 0 also catches d <= 1 *)
  check_int "one-tick dwell in bucket 0" 1 after.Residency.dwell.(0);
  check "no open monitors" true (after.Residency.open_monitors = []);
  (* the object's next inflation is a re-inflation even though no
     snapshot ever saw the first monitor *)
  Residency.feed t (ev 3 1 Event.Inflate_wait 7);
  let again = Residency.summary t in
  check_int "re-inflation detected" 1 again.Residency.reinflations;
  check "still-fat monitor reported" true
    (again.Residency.open_monitors = [ (7, 3) ])

(* Dwell bucket boundaries: a dwell of exactly 2^k seq ticks belongs
   to bucket k = [2^k, 2^(k+1)), and 2^k - 1 to bucket k-1 — pinned
   with dwells 8 and 7 against a hand-computed stream. *)
let test_residency_dwell_bucket_boundary () =
  let s =
    Residency.of_drained
      (stream
         [
           (1, Event.Acquire_fast, 1);
           (* seq 0: live 0 *)
           (1, Event.Inflate_wait, 1);
           (* seq 1: monitor 1 opens, live 1 *)
           (2, Event.Contended_begin, 2);
           (* seq 2: area += 1 -> 1 *)
           (2, Event.Inflate_contention, 2);
           (* seq 3: area += 1 -> 2; monitor 2 opens, live 2 *)
           (2, Event.Acquire_fat, 2);
           (* seq 4: area += 2 -> 4 *)
           (2, Event.Contended_end, 2);
           (* seq 5: area += 2 -> 6 *)
           (2, Event.Release_fat, 2);
           (* seq 6: area += 2 -> 8 *)
           (1, Event.Wait_op, 1);
           (* seq 7: area += 2 -> 10 *)
           (1, Event.Release_fat, 1);
           (* seq 8: area += 2 -> 12 *)
           (0, Event.Deflate_quiescent, 1);
           (* seq 9: area += 2 -> 14; dwell 9-1 = 8, bucket 3 *)
           (0, Event.Deflate_concurrent, 2);
           (* seq 10: area += 1 -> 15; dwell 10-3 = 7, bucket 2 *)
         ])
  in
  check_int "span" 10 s.Residency.span;
  check "area" true (s.Residency.fat_area = 15.0);
  check "residency" true (s.Residency.fat_residency = 1.5);
  check_int "inflations" 2 s.Residency.inflations;
  check_int "deflations" 2 s.Residency.deflations;
  check_int "live peak" 2 s.Residency.live_peak;
  check_int "dwell 8 = 2^3 lands in bucket 3" 1 s.Residency.dwell.(3);
  check_int "dwell 7 lands in bucket 2" 1 s.Residency.dwell.(2);
  check_int "no other buckets" 2 (Array.fold_left ( + ) 0 s.Residency.dwell);
  check_int "one contended episode" 1 s.Residency.contended_episodes

(* --- stream-level validation entry points --- *)

let test_validate_check_stream () =
  let good =
    Validate.check_stream
      (stream [ (1, Event.Acquire_fast, 1); (1, Event.Release_fast, 1) ])
  in
  check_int "clean events" 2 good.Validate.stream_events;
  check_int "clean objects" 1 good.Validate.stream_objects;
  check "clean" true (good.Validate.stream_violations = []);
  let bad = Validate.check_stream (stream [ (1, Event.Release_fast, 1) ]) in
  (match bad.Validate.stream_violations with
  | [ (0, msg) ] ->
      check "rendered class" true
        (String.length msg > 0
        &&
        let has_sub sub =
          let n = String.length msg and m = String.length sub in
          let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
          go 0
        in
        has_sub "unlock-without-lock")
  | _ -> Alcotest.fail "expected exactly one violation at seq 0");
  match
    Validate.assert_stream_clean (stream [ (1, Event.Acquire_fast, 1) ])
  with
  | () -> Alcotest.fail "held-at-end stream must raise"
  | exception Validate.Violation _ -> ()

let () =
  Alcotest.run "oracle"
    [
      ( "violation classes",
        [
          Alcotest.test_case "unlock without lock" `Quick test_unlock_without_lock;
          Alcotest.test_case "ownership violation" `Quick test_ownership_violation;
          Alcotest.test_case "count overflow without inflation" `Quick
            test_count_overflow_without_inflation;
          Alcotest.test_case "fast reacquire while holding" `Quick
            test_count_error_fast_reacquire;
          Alcotest.test_case "count underflow" `Quick test_count_underflow;
          Alcotest.test_case "reinflation of a live monitor" `Quick
            test_reinflation_of_retired;
          Alcotest.test_case "lost wakeup" `Quick test_lost_wakeup;
          Alcotest.test_case "deflation of an owned monitor" `Quick
            test_deflation_without_handshake;
          Alcotest.test_case "deflation with parked waiters" `Quick
            test_deflation_with_waiters;
          Alcotest.test_case "stale handle" `Quick test_stale_handle;
          Alcotest.test_case "seq gap" `Quick test_malformed_seq_gap;
          Alcotest.test_case "duplicate seq" `Quick test_malformed_duplicate_seq;
          Alcotest.test_case "holder ordinal taken twice" `Quick
            test_malformed_duplicate_holder_ordinal;
          Alcotest.test_case "tid ordinals go backwards" `Quick
            test_malformed_tid_ordinals_backwards;
          Alcotest.test_case "thread-path event on tid 0" `Quick
            test_malformed_tid0_thread_path;
          Alcotest.test_case "held at end of stream" `Quick
            test_malformed_held_at_end;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "thin cycle" `Quick test_accepts_thin_cycle;
          Alcotest.test_case "full lifecycle" `Quick test_accepts_full_lifecycle;
          Alcotest.test_case "timed-wait expiry" `Quick
            test_accepts_timed_wait_expiry;
          Alcotest.test_case "relaxed absorbs emit-window skew" `Quick
            test_relaxed_absorbs_emit_window_skew;
          Alcotest.test_case "empty stream" `Quick test_empty_stream_is_clean;
        ] );
      ( "adversarial generator",
        [
          QCheck_alcotest.to_alcotest prop_generated_streams_accepted;
          QCheck_alcotest.to_alcotest prop_mutations_flagged;
          Alcotest.test_case "catalogue covers every class" `Quick
            test_mutation_catalogue_covers_all_classes;
        ] );
      ( "queued aborts",
        List.map
          (fun spec ->
            Alcotest.test_case (spec_print spec) `Quick (test_pinned_mutation spec))
          queued_abort_specs );
      ( "seeded sim bugs",
        [
          Alcotest.test_case "correct deflater world stays clean" `Quick
            test_sim_correct_deflater_streams_clean;
          Alcotest.test_case "no-handshake deflater flagged" `Quick
            test_sim_buggy_deflater_flagged;
          Alcotest.test_case "owner-skip unlock flagged on every schedule" `Quick
            test_sim_owner_skip_unlock_flagged_every_schedule;
          Alcotest.test_case "owner-skip solo is unlock-without-lock" `Quick
            test_sim_owner_skip_solo_is_unlock_without_lock;
        ] );
      ( "replay streams",
        [
          Alcotest.test_case "javalex accepted" `Quick
            (test_replay_stream_accepted "javalex");
          Alcotest.test_case "javacup accepted" `Quick
            (test_replay_stream_accepted "javacup");
          Alcotest.test_case "mocha accepted" `Quick
            (test_replay_stream_accepted "mocha");
          Alcotest.test_case "javacup par 1 domain (affinity)" `Quick
            (test_replay_par_stream_accepted "javacup" 1
               Parallel_replay.Affinity);
          Alcotest.test_case "javacup par 2 domains (affinity)" `Quick
            (test_replay_par_stream_accepted "javacup" 2
               Parallel_replay.Affinity);
          Alcotest.test_case "javacup par 4 domains (shuffle)" `Quick
            (test_replay_par_stream_accepted "javacup" 4
               Parallel_replay.Shuffle);
          Alcotest.test_case "javalex par 2 domains (shuffle)" `Quick
            (test_replay_par_stream_accepted "javalex" 2
               Parallel_replay.Shuffle);
          Alcotest.test_case "mocha par 4 domains (affinity)" `Quick
            (test_replay_par_stream_accepted "mocha" 4 Parallel_replay.Affinity);
          Alcotest.test_case "javacup hapax strict" `Quick
            (test_replay_backend_stream_accepted "javacup" Tl_monitor.Fatlock.Hapax);
          Alcotest.test_case "javacup par 2 domains (shuffle, hapax)" `Quick
            (test_replay_par_backend_stream_accepted "javacup" 2
               Parallel_replay.Shuffle Tl_monitor.Fatlock.Hapax);
        ] );
      ( "holder stamping",
        [
          Alcotest.test_case "two domains hammer one object" `Quick
            (test_contended_object_stamps_clean thin);
          Alcotest.test_case "same, hapax backend" `Quick
            (test_contended_object_stamps_clean (thin_on Tl_monitor.Fatlock.Hapax));
          Alcotest.test_case "same, cjm" `Quick
            (test_contended_object_stamps_clean
               (Tl_baselines.Registry.find_entry_exn "cjm"));
        ] );
      ( "policy switches",
        [
          Alcotest.test_case "mid-stream switches accepted both modes" `Quick
            test_policy_switch_mid_stream_accepted;
          Alcotest.test_case "controlled javacup par 1 domain" `Quick
            (test_replay_par_controlled_accepted "javacup" 1
               Parallel_replay.Affinity);
          Alcotest.test_case "controlled javacup par 2 domains" `Quick
            (test_replay_par_controlled_accepted "javacup" 2
               Parallel_replay.Shuffle);
          Alcotest.test_case "controlled javacup par 4 domains" `Quick
            (test_replay_par_controlled_accepted "javacup" 4
               Parallel_replay.Shuffle);
        ] );
      ( "residency",
        [
          Alcotest.test_case "empty" `Quick test_residency_empty;
          Alcotest.test_case "integral and dwell histogram" `Quick
            test_residency_integral_and_dwell;
          Alcotest.test_case "peak, reinflation, hottest" `Quick
            test_residency_peak_reinflation_hottest;
          Alcotest.test_case "javalex stream = counters" `Quick
            (test_residency_matches_scheme_counters "javalex" "always-idle");
          Alcotest.test_case "javacup stream = counters" `Quick
            (test_residency_matches_scheme_counters "javacup" "idle-for-4");
          Alcotest.test_case "mocha stream = counters" `Quick
            (test_residency_matches_scheme_counters "mocha" "always-idle");
          Alcotest.test_case "javacup (never) = counters" `Quick
            (test_residency_matches_scheme_counters "javacup" "never");
          Alcotest.test_case "aborted handshake: stream = residency = counter" `Quick
            test_residency_counts_an_aborted_handshake;
          Alcotest.test_case "evaporation within one drain window" `Quick
            test_residency_evaporates_within_one_drain_window;
          Alcotest.test_case "dwell bucket boundary at a power of two" `Quick
            test_residency_dwell_bucket_boundary;
        ] );
      ( "validate",
        [
          Alcotest.test_case "check_stream and assert_stream_clean" `Quick
            test_validate_check_stream;
        ] );
    ]
