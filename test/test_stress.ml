(* Stress: every scheme under chaos injection (random yields inside the
   protocol edges) in randomized mixed-workload storms, each storm
   traced and its whole stream judged by the scheme's own protocol
   oracle.  This is where cooperative-scheduling bugs that the law
   battery's tamer interleavings miss would surface.  The counters the
   storms keep are an independent check of exclusion. *)

open Tl_core
module Runtime = Tl_runtime.Runtime
module H = Tl_heap.Heap
module Sink = Tl_events.Sink
module Oracle = Tl_events.Oracle

let check_int = Alcotest.(check int)

let schemes_under_test = [ "thin"; "jdk111"; "ibm112"; "fat"; "mcs"; "thin-unlkcas" ]

(* A chaos-wrapped scheme tracing into a fresh sink. *)
let traced scheme_name runtime =
  let sink = Sink.create () in
  let entry = Tl_baselines.Registry.find_entry_exn scheme_name in
  (sink, Validate.with_chaos ~seed:(Hashtbl.hash scheme_name) (entry.make ~events:sink runtime))

let report_str r = Format.asprintf "%a" Oracle.pp r

(* Once every thread is joined: nothing dropped, and the oracle finds
   nothing to flag. *)
let check_stream sink (scheme : Scheme_intf.packed) =
  let d = Sink.drain sink in
  check_int "no events dropped" 0 (Sink.total_dropped sink);
  let r = scheme.verify d in
  if not (Oracle.ok r) then
    Alcotest.failf "%s: oracle rejected the stream: %s" scheme.name (report_str r)

let storm ?backend scheme_name () =
  let runtime = Runtime.create () in
  let heap = H.create () in
  let sink, scheme = traced scheme_name runtime in
  let objs = H.alloc_many heap 16 in
  let counters = Array.make 16 0 in
  Runtime.run_parallel ?backend runtime 6 (fun t env ->
      let prng = Tl_util.Prng.create (t * 31337) in
      for _ = 1 to 1500 do
        let i = Tl_util.Prng.int prng 16 in
        let obj = objs.(i) in
        match Tl_util.Prng.int prng 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            (* plain critical section *)
            scheme.Scheme_intf.acquire env obj;
            counters.(i) <- counters.(i) + 1;
            scheme.Scheme_intf.release env obj
        | 6 | 7 ->
            (* nested *)
            scheme.Scheme_intf.acquire env obj;
            scheme.Scheme_intf.acquire env obj;
            counters.(i) <- counters.(i) + 1;
            scheme.Scheme_intf.release env obj;
            scheme.Scheme_intf.release env obj
        | 8 ->
            (* timed wait (nobody may notify: relies on the timeout) *)
            scheme.Scheme_intf.acquire env obj;
            counters.(i) <- counters.(i) + 1;
            scheme.Scheme_intf.wait ?timeout:(Some 0.001) env obj;
            scheme.Scheme_intf.release env obj
        | _ ->
            (* notify with no waiters is a legal no-op *)
            scheme.Scheme_intf.acquire env obj;
            counters.(i) <- counters.(i) + 1;
            scheme.Scheme_intf.notify env obj;
            scheme.Scheme_intf.release env obj
      done);
  check_int "all increments survived" 9000 (Array.fold_left ( + ) 0 counters);
  check_stream sink scheme

let waiters_storm scheme_name () =
  (* producers/consumers rendezvous through a single monitor under
     chaos, judged by the oracle *)
  let runtime = Runtime.create () in
  let heap = H.create () in
  let sink, scheme = traced scheme_name runtime in
  let obj = H.alloc heap in
  let budget = ref 0 in
  let produced = ref 0 in
  let consumed = ref 0 in
  let rounds = 300 in
  let producer env =
    for _ = 1 to rounds do
      scheme.Scheme_intf.acquire env obj;
      budget := !budget + 1;
      produced := !produced + 1;
      scheme.Scheme_intf.notify_all env obj;
      scheme.Scheme_intf.release env obj
    done
  in
  let consumer env =
    for _ = 1 to rounds do
      scheme.Scheme_intf.acquire env obj;
      while !budget = 0 do
        scheme.Scheme_intf.wait ?timeout:(Some 0.05) env obj
      done;
      budget := !budget - 1;
      consumed := !consumed + 1;
      scheme.Scheme_intf.release env obj
    done
  in
  let handles =
    [
      Runtime.spawn ~name:"p0" runtime producer;
      Runtime.spawn ~name:"p1" runtime producer;
      Runtime.spawn ~name:"c0" runtime consumer;
      Runtime.spawn ~name:"c1" runtime consumer;
    ]
  in
  List.iter Runtime.join handles;
  check_int "production" (2 * rounds) !produced;
  check_int "consumption" (2 * rounds) !consumed;
  check_int "balance" 0 !budget;
  check_stream sink scheme

(* The oracle must have teeth on a scheme that locks nothing: nosync
   still emits what a monitor would, so a bare release without an
   acquire is flagged. *)
let oracle_catches_unpaired_release () =
  let runtime = Runtime.create () in
  let sink = Sink.create () in
  let scheme = (Tl_baselines.Registry.find_entry_exn "nosync").make ~events:sink runtime in
  let env = Runtime.main_env runtime in
  let obj = H.alloc (H.create ()) in
  scheme.Scheme_intf.release env obj;
  let r = scheme.verify (Sink.drain sink) in
  if Option.is_none (Oracle.find r Oracle.Unlock_without_lock) then
    Alcotest.failf "unpaired release not flagged as unlock-without-lock: %s" (report_str r)

(* And it must catch an actual mutual-exclusion failure: nosync lets
   two threads in at once.  The second entrant's acquire lands while
   the first still owns the monitor (ownership); when the racing emits
   take one ordinal twice, the stream itself is malformed instead. *)
let oracle_catches_broken_exclusion () =
  let runtime = Runtime.create () in
  let sink = Sink.create () in
  let scheme = (Tl_baselines.Registry.find_entry_exn "nosync").make ~events:sink runtime in
  let obj = H.alloc (H.create ()) in
  Runtime.run_parallel runtime 2 (fun _ env ->
      for i = 1 to 5_000 do
        scheme.Scheme_intf.acquire env obj;
        (* actually deschedule inside the "critical section" so the
           other thread provably runs while this one holds —
           Thread.yield alone may be a no-op if the peer is not yet
           runnable *)
        if i mod 64 = 0 then Unix.sleepf 0.0002 else Thread.yield ();
        scheme.Scheme_intf.release env obj
      done);
  let r = scheme.verify (Sink.drain sink) in
  match
    List.find_opt
      (fun cls -> Option.is_some (Oracle.find r cls))
      [ Oracle.Ownership_violation; Oracle.Stream_malformed ]
  with
  | Some cls -> Printf.printf "broken exclusion flagged as %s\n" (Oracle.class_name cls)
  | None ->
      Alcotest.failf "broken exclusion flagged as neither ownership nor stream-malformed: %s"
        (report_str r)

let () =
  Alcotest.run "stress"
    [
      ( "chaos storms",
        List.map
          (fun name -> Alcotest.test_case (name ^ " mixed storm") `Slow (storm name))
          schemes_under_test );
      (* The same storms on domains: the threads really overlap, so a
         scheme that gives its monitor up before stamping the release
         lets the next holder's events land in the gap. *)
      ( "domain storms",
        List.map
          (fun name ->
            Alcotest.test_case (name ^ " mixed storm") `Slow
              (storm ~backend:Runtime.Domain_backend name))
          [ "thin"; "jdk111"; "ibm112"; "fat"; "mcs"; "cjm" ] );
      ( "wait/notify storms",
        List.map
          (fun name -> Alcotest.test_case (name ^ " rendezvous") `Slow (waiters_storm name))
          [ "thin"; "jdk111"; "ibm112"; "fat"; "mcs" ] );
      ( "oracle",
        [
          Alcotest.test_case "catches unpaired release" `Quick oracle_catches_unpaired_release;
          Alcotest.test_case "catches broken exclusion" `Slow oracle_catches_broken_exclusion;
        ] );
    ]
