(* Parallel replay: the fiber scheduler's Chase-Lev deque (sequential
   model + concurrent no-lost/no-duplicate stealing), trace
   decomposition invariants, the replay's deal (its memory and its
   claim race), and the replay scheduler itself — op/acquire
   conservation, single reset/snapshot stats accounting, and per-object
   replay determinism across domain counts in affinity mode. *)

open Tl_workload
module Ws_deque = Tl_fiber.Ws_deque
module Runtime = Tl_runtime.Runtime
module Thin = Tl_core.Thin
module Scheme_intf = Tl_core.Scheme_intf
module Lock_stats = Tl_core.Lock_stats
module Sink = Tl_events.Sink
module Event = Tl_events.Event

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Ws_deque: sequential semantics --- *)

let test_deque_lifo_owner () =
  let dq = Ws_deque.create ~capacity:8 in
  List.iter (Ws_deque.push dq) [ 1; 2; 3 ];
  check "owner pops LIFO" true (Ws_deque.pop dq = Some 3);
  check "owner pops LIFO" true (Ws_deque.pop dq = Some 2);
  Ws_deque.push dq 4;
  check "interleaved push" true (Ws_deque.pop dq = Some 4);
  check "down to first" true (Ws_deque.pop dq = Some 1);
  check "empty" true (Ws_deque.pop dq = None)

let test_deque_fifo_thief () =
  let dq = Ws_deque.create ~capacity:8 in
  List.iter (Ws_deque.push dq) [ 1; 2; 3; 4 ];
  check "thief steals FIFO" true (Ws_deque.steal dq = `Stolen 1);
  check "thief steals FIFO" true (Ws_deque.steal dq = `Stolen 2);
  check "owner still LIFO" true (Ws_deque.pop dq = Some 4);
  check "thief gets the last" true (Ws_deque.steal dq = `Stolen 3);
  check "thief sees empty" true (Ws_deque.steal dq = `Empty)

let test_deque_capacity () =
  let dq = Ws_deque.create ~capacity:3 in
  check_int "rounds up to a power of two" 4 (Ws_deque.capacity dq);
  for i = 1 to 4 do
    Ws_deque.push dq i
  done;
  (match Ws_deque.push dq 5 with
  | () -> Alcotest.fail "push beyond capacity must raise"
  | exception Ws_deque.Full -> ());
  (* stealing frees room at the top *)
  check "steal" true (Ws_deque.steal dq = `Stolen 1);
  Ws_deque.push dq 5;
  check "size estimate" true (Ws_deque.size dq = 4)

(* Random push/pop/steal sequence against a list model: the deque is a
   double-ended queue with the owner at the bottom and thieves at the
   top, so the model is a plain list with pops at the back and steals
   at the front. *)
let prop_deque_matches_model =
  let op_gen =
    QCheck.Gen.(
      frequency [ (3, return `Push); (2, return `Pop); (2, return `Steal) ] |> list_size (1 -- 200))
  in
  let arb =
    QCheck.make op_gen
      ~print:(fun ops ->
        String.concat ""
          (List.map (function `Push -> "u" | `Pop -> "o" | `Steal -> "s") ops))
  in
  QCheck.Test.make ~name:"deque matches a two-ended list model" ~count:200 arb (fun ops ->
      let dq = Ws_deque.create ~capacity:256 in
      let model = ref [] in
      let next = ref 0 in
      List.for_all
        (function
          | `Push ->
              let x = !next in
              incr next;
              Ws_deque.push dq x;
              model := !model @ [ x ];
              true
          | `Pop -> (
              let expected =
                match List.rev !model with
                | [] -> None
                | last :: rest_rev ->
                    model := List.rev rest_rev;
                    Some last
              in
              Ws_deque.pop dq = expected)
          | `Steal -> (
              match !model with
              | [] -> Ws_deque.steal dq = `Empty
              | first :: rest ->
                  model := rest;
                  Ws_deque.steal dq = `Stolen first))
        ops)

(* Two thief domains race the owner for every item; each item must be
   taken exactly once, whoever wins. *)
let test_deque_concurrent_steals () =
  let n = 20_000 in
  let dq = Ws_deque.create ~capacity:n in
  for i = 0 to n - 1 do
    Ws_deque.push dq i
  done;
  let stop = Atomic.make false in
  let thief () =
    let taken = ref [] in
    let rec go () =
      match Ws_deque.steal dq with
      | `Stolen x ->
          taken := x :: !taken;
          go ()
      | `Retry -> go ()
      | `Empty -> if not (Atomic.get stop) then go ()
    in
    go ();
    !taken
  in
  let thieves = [ Domain.spawn thief; Domain.spawn thief ] in
  let mine = ref [] in
  let rec pop_all () =
    match Ws_deque.pop dq with
    | Some x ->
        mine := x :: !mine;
        pop_all ()
    | None -> ()
  in
  pop_all ();
  Atomic.set stop true;
  let stolen = List.concat_map Domain.join thieves in
  let all = List.sort compare (!mine @ stolen) in
  check_int "every item taken exactly once" n (List.length all);
  check "items are 0..n-1" true (List.mapi (fun i x -> i = x) all |> List.for_all Fun.id)

(* --- decompose --- *)

let profile_arb =
  QCheck.make
    (QCheck.Gen.oneofl Profiles.all)
    ~print:(fun (p : Profiles.t) -> p.Profiles.name)

let run_ops (d : Parallel_replay.decomposition) r =
  Array.sub d.lane_ops d.run_start.(r) (d.run_start.(r + 1) - d.run_start.(r))

let lane_runs (l : Parallel_replay.lane) = List.init (l.end_run - l.first_run) (( + ) l.first_run)

let prop_decompose_preserves_trace =
  QCheck.Test.make ~name:"decompose preserves per-object subsequences" ~count:18 profile_arb
    (fun p ->
      let trace = Tracegen.generate ~max_syncs:4_000 p in
      let d = Parallel_replay.decompose trace in
      let total =
        Array.fold_left
          (fun acc (l : Parallel_replay.lane) ->
            List.fold_left (fun a r -> a + Array.length (run_ops d r)) acc (lane_runs l))
          0 d.all_lanes
      in
      total = Array.length trace.Tracegen.ops
      && Array.for_all
           (fun (l : Parallel_replay.lane) ->
             (* concatenated runs = the object's subsequence of the trace *)
             let concat =
               List.concat_map (fun r -> Array.to_list (run_ops d r)) (lane_runs l)
             in
             let expected =
               Array.to_list trace.Tracegen.ops |> List.filter (fun op -> abs op - 1 = l.obj)
             in
             concat = expected
             && (* every run is balanced and properly nested *)
             List.for_all
               (fun r ->
                 let depth = ref 0 and ok = ref true in
                 Array.iter
                   (fun op ->
                     depth := !depth + (if op > 0 then 1 else -1);
                     if !depth < 0 then ok := false)
                   (run_ops d r);
                 !ok && !depth = 0)
               (lane_runs l))
           d.all_lanes)

(* The lanes' run ranges follow one another from run 0 to the last, the
   runs' op slices from offset 0 to the end of [lane_ops], and the
   lanes' objects come in the order the trace first touches them. *)
let prop_decompose_tiles_in_first_touch_order =
  QCheck.Test.make ~name:"lane segments tile the ops in first-touch order" ~count:18
    profile_arb (fun p ->
      let trace = Tracegen.generate ~max_syncs:4_000 p in
      let d = Parallel_replay.decompose trace in
      let runs = Array.length d.run_start - 1 in
      let first_touch =
        let seen = Hashtbl.create 64 in
        Array.to_list trace.Tracegen.ops
        |> List.filter_map (fun op ->
               let obj = abs op - 1 in
               if Hashtbl.mem seen obj then None
               else begin
                 Hashtbl.add seen obj ();
                 Some obj
               end)
      in
      let next_run = ref 0 in
      let lanes_tile =
        Array.for_all
          (fun (l : Parallel_replay.lane) ->
            let ok = l.first_run = !next_run && l.end_run > l.first_run in
            next_run := l.end_run;
            ok)
          d.all_lanes
        && !next_run = runs
      in
      let runs_tile =
        d.run_start.(0) = 0
        && d.run_start.(runs) = Array.length d.lane_ops
        && List.for_all (fun r -> d.run_start.(r) < d.run_start.(r + 1)) (List.init runs Fun.id)
      in
      lanes_tile && runs_tile
      && Array.to_list (Array.map (fun (l : Parallel_replay.lane) -> l.obj) d.all_lanes)
         = first_touch)

(* --- the deal --- *)

(* The deal is one flat int array plus a cursor per domain, so a
   Shuffle deal of javalex's 100k-sync trace (one item per run) at 2
   domains fits in one word per item and a few per domain.  Boxed
   per-slot storage, as in a Chase-Lev deque, costs about 3 words per
   power-of-two slot plus 2 per item and fails this bound by far. *)
let test_deal_memory_ledger () =
  let trace = Tracegen.generate (Option.get (Profiles.find "javalex")) in
  let d = Parallel_replay.decompose trace in
  let runs = Array.length d.run_start - 1 in
  check_int "javalex 100k cuts into 74,967 runs" 74_967 runs;
  let domains = 2 in
  let dealt = Parallel_replay.deal ~domains Parallel_replay.Shuffle d.all_lanes in
  let words = Obj.reachable_words (Obj.repr dealt) in
  let bound = runs + (8 * domains) + 8 in
  check (Printf.sprintf "deal of %d items is %d words, at most %d" runs words bound) true
    (words <= bound)

(* The owner and a thief race one cursor: every item is dealt to
   domain 0's segment, the main domain claims from it as its owner and
   a second domain claims only from it.  Each item must be claimed
   exactly once, whoever wins.  Seeded random pauses between claims
   vary the interleaving from run to run (the seed is QCHECK_SEED when
   set, and printed). *)
let test_claim_race () =
  let n = 200_000 in
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with Some s -> int_of_string s | None -> 1998
  in
  Printf.printf "claim race seed %d\n%!" seed;
  (* lane [i] is run [i] of object [2 i]: all of them shard to domain 0 *)
  let lanes =
    Array.init n (fun i -> { Parallel_replay.obj = 2 * i; first_run = i; end_run = i + 1 })
  in
  let dealt = Parallel_replay.deal ~domains:2 Parallel_replay.Affinity lanes in
  let start = Atomic.make false in
  let claimer who () =
    let prng = Random.State.make [| seed; who |] in
    let got = Array.make n (-1) and k = ref 0 in
    while not (Atomic.get start) do
      Domain.cpu_relax ()
    done;
    let item = ref (Parallel_replay.claim dealt 0) in
    while !item >= 0 do
      got.(!k) <- !item;
      incr k;
      if Random.State.int prng 8 = 0 then
        for _ = 1 to Random.State.int prng 64 do
          Domain.cpu_relax ()
        done;
      item := Parallel_replay.claim dealt 0
    done;
    Array.sub got 0 !k
  in
  let thief = Domain.spawn (claimer 1) in
  Atomic.set start true;
  let mine = claimer 0 () in
  let stolen = Domain.join thief in
  Printf.printf "owner claimed %d, thief %d\n%!" (Array.length mine) (Array.length stolen);
  check_int "domain 1's segment is empty" (-1) (Parallel_replay.claim dealt 1);
  let times = Array.make n 0 and one_run = ref true in
  let tally item =
    let first = item lsr 31 and last = item land ((1 lsl 31) - 1) in
    if last <> first + 1 then one_run := false;
    times.(first) <- times.(first) + 1
  in
  Array.iter tally mine;
  Array.iter tally stolen;
  check "every item is one run" true !one_run;
  check_int "items claimed" n (Array.length mine + Array.length stolen);
  check "every item claimed exactly once" true (Array.for_all (( = ) 1) times)

(* --- the scheduler --- *)

let replay ~domains ~mode trace =
  let runtime = Runtime.create () in
  let scheme = Tl_baselines.Registry.find_exn "thin" runtime in
  let config = { Parallel_replay.default_config with Parallel_replay.domains; mode } in
  Parallel_replay.run ~config ~scheme ~runtime trace

let test_parallel_replay_conserves_ops () =
  let profile = Option.get (Profiles.find "javacup") in
  let trace = Tracegen.generate ~seed:7 ~max_syncs:6_000 profile in
  let acquires = Tracegen.acquire_count trace in
  List.iter
    (fun (domains, mode) ->
      let r = replay ~domains ~mode trace in
      check_int "all ops executed" (Array.length trace.Tracegen.ops) r.Parallel_replay.ops;
      check_int "all acquires executed" acquires r.Parallel_replay.acquires;
      (* Satellite fix under test: the single post-join snapshot must
         agree with the trace — a per-domain snapshot/reset pattern
         would double-count the shared atomic counters. *)
      check_int "stats acquires counted once" acquires
        (Lock_stats.total_acquires r.Parallel_replay.stats);
      let tallied =
        Array.fold_left
          (fun acc (t : Parallel_replay.domain_tally) -> acc + t.Parallel_replay.ops_executed)
          0 r.Parallel_replay.tallies
      in
      check_int "per-domain tallies sum to total" r.Parallel_replay.ops tallied)
    [
      (1, Parallel_replay.Affinity);
      (3, Parallel_replay.Affinity);
      (2, Parallel_replay.Shuffle);
      (4, Parallel_replay.Shuffle);
    ]

(* Whoever takes an item runs it to its end, so every item is started
   exactly once — a lane in affinity mode, a run in shuffle mode — and
   the runs executed add up to the trace's. *)
let test_items_started_once () =
  let profile = Option.get (Profiles.find "javacup") in
  let trace = Tracegen.generate ~seed:7 ~max_syncs:6_000 profile in
  List.iter
    (fun (domains, mode) ->
      let r = replay ~domains ~mode trace in
      let sum f = Array.fold_left (fun acc t -> acc + f t) 0 r.Parallel_replay.tallies in
      let items =
        match mode with
        | Parallel_replay.Affinity -> r.Parallel_replay.lanes
        | Parallel_replay.Shuffle -> r.Parallel_replay.runs
      in
      let at = Printf.sprintf "%s at %d domains" (Parallel_replay.mode_name mode) domains in
      check_int ("items started once, " ^ at) items
        (sum (fun t -> t.Parallel_replay.lanes_started));
      check_int ("runs executed, " ^ at) r.Parallel_replay.runs
        (sum (fun t -> t.Parallel_replay.runs_executed)))
    (List.concat_map
       (fun d -> [ (d, Parallel_replay.Affinity); (d, Parallel_replay.Shuffle) ])
       [ 1; 2; 3 ])

(* A lopsided deal: every object falls in shard 0, so in affinity mode
   the other domains start with empty segments and can only steal.  The
   replay must still run every op and end: a worker ends once it finds
   every segment empty, and the runs it leaves are another's to finish. *)
let test_lopsided_deal_completes () =
  let objects = 48 and rounds = 12 in
  let ops = ref [] in
  for round = 0 to rounds - 1 do
    for i = 0 to objects - 1 do
      (* object [4 i] is in shard 0 at 1, 2 and 4 domains *)
      let op = (4 * i) + 1 in
      if (round + i) mod 3 = 0 then ops := -op :: -op :: op :: op :: !ops
      else ops := -op :: op :: !ops
    done
  done;
  let trace =
    {
      Tracegen.profile = Option.get (Profiles.find "javalex");
      pool_size = 4 * objects;
      ops = Array.of_list (List.rev !ops);
    }
  in
  List.iter
    (fun domains ->
      let r = replay ~domains ~mode:Parallel_replay.Affinity trace in
      check_int
        (Printf.sprintf "all ops executed at %d domains" domains)
        (Array.length trace.Tracegen.ops) r.Parallel_replay.ops;
      check_int
        (Printf.sprintf "all acquires executed at %d domains" domains)
        (Tracegen.acquire_count trace) r.Parallel_replay.acquires;
      check_int
        (Printf.sprintf "one lane per object at %d domains" domains)
        objects r.Parallel_replay.lanes)
    [ 2; 4 ]

(* Affinity-mode determinism: per-object program order is preserved by
   construction (whole-lane stealing), so the sequence of lock-path
   event kinds each object sees must be identical for any domain
   count. *)
let per_object_kind_sequences ~domains trace =
  let sink =
    Sink.create ~ring_capacity:((4 * Array.length trace.Tracegen.ops) + 4096) ()
  in
  let runtime = Runtime.create () in
  let config = { Thin.default_config with Thin.count_width = 1 } in
  let ctx = Thin.create_with ~config ~events:sink runtime in
  let scheme = Scheme_intf.pack (module Thin) ctx in
  (* A lane runs whole on the domain that popped or stole it, but which
     domain that is varies from run to run, and the sink orders two
     threads' events only across an epoch boundary: within one epoch
     the drain sorts by tid.  Advancing the epoch after every op makes
     the drained per-object order the executed order, whichever domains
     ran the object's runs. *)
  let pconfig =
    { Parallel_replay.default_config with Parallel_replay.domains; tick_every = 1 }
  in
  ignore
    (Parallel_replay.run ~config:pconfig
       ~tick:(fun _ -> Sink.advance_epoch sink)
       ~scheme ~runtime trace);
  let d = Sink.drain sink in
  check "no events dropped" true (d.Sink.dropped = []);
  let tbl : (int, Event.kind list) Hashtbl.t = Hashtbl.create 64 in
  Sink.iter
    (fun ~seq:_ ~tid:_ ~kind ~arg ~ord:_ ->
      match kind with
      | Event.Acquire_fast | Event.Acquire_nested | Event.Acquire_fat
      | Event.Acquire_fat_queued | Event.Release_fast | Event.Release_nested
      | Event.Release_fat | Event.Inflate_contention | Event.Inflate_wait
      | Event.Inflate_overflow ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl arg) in
          Hashtbl.replace tbl arg (kind :: prev)
      | _ -> ())
    d;
  tbl

let test_affinity_replay_is_deterministic () =
  let profile = Option.get (Profiles.find "javalex") in
  let trace = Tracegen.generate ~seed:42 ~max_syncs:4_000 profile in
  let reference = per_object_kind_sequences ~domains:1 trace in
  List.iter
    (fun domains ->
      let got = per_object_kind_sequences ~domains trace in
      check_int
        (Printf.sprintf "same object set at %d domains" domains)
        (Hashtbl.length reference) (Hashtbl.length got);
      Hashtbl.iter
        (fun obj expected ->
          check
            (Printf.sprintf "object %d kind sequence at %d domains" obj domains)
            true
            (Hashtbl.find_opt got obj = Some expected))
        reference)
    [ 2; 4 ]

let () =
  Alcotest.run "parallel"
    [
      ( "ws_deque",
        [
          Alcotest.test_case "owner is LIFO" `Quick test_deque_lifo_owner;
          Alcotest.test_case "thief is FIFO" `Quick test_deque_fifo_thief;
          Alcotest.test_case "capacity and Full" `Quick test_deque_capacity;
          QCheck_alcotest.to_alcotest prop_deque_matches_model;
          Alcotest.test_case "concurrent steals lose nothing" `Quick
            test_deque_concurrent_steals;
        ] );
      ( "decompose",
        [
          QCheck_alcotest.to_alcotest prop_decompose_preserves_trace;
          QCheck_alcotest.to_alcotest prop_decompose_tiles_in_first_touch_order;
        ] );
      ( "deal",
        [
          Alcotest.test_case "memory ledger" `Quick test_deal_memory_ledger;
          Alcotest.test_case "claim race" `Quick test_claim_race;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "ops and stats conserved" `Quick
            test_parallel_replay_conserves_ops;
          Alcotest.test_case "affinity replay deterministic" `Quick
            test_affinity_replay_is_deterministic;
          Alcotest.test_case "every item started once" `Quick test_items_started_once;
          Alcotest.test_case "lopsided deal completes" `Quick test_lopsided_deal_completes;
        ] );
    ]
