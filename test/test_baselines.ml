(* Baseline schemes: the full monitor-semantics law battery for each,
   plus behaviours specific to the monitor cache (recycling under
   working-set pressure) and to hot locks (promotion, slot
   exhaustion). *)

open Tl_core
open Tl_baselines
module Runtime = Tl_runtime.Runtime
module H = Tl_heap.Heap

let world_of scheme_name () =
  let runtime = Runtime.create () in
  {
    Tl_test_helpers.Scheme_laws.scheme = Registry.find_exn scheme_name runtime;
    runtime;
    heap = H.create ();
  }

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let extra_or_zero s key =
  match List.assoc_opt key s.Lock_stats.extra with Some v -> v | None -> 0

(* --- monitor cache (jdk111) specifics --- *)

let small_cache () =
  let runtime = Runtime.create () in
  let params = { Jdk111.cache_capacity = 8; free_list_capacity = 8 } in
  let ctx = Jdk111.create_with ~params runtime in
  (runtime, ctx, H.create ())

let test_cache_recycles_under_pressure () =
  let runtime, ctx, heap = small_cache () in
  let env = Runtime.main_env runtime in
  let objs = H.alloc_many heap 100 in
  Array.iter
    (fun obj ->
      Jdk111.acquire ctx env obj;
      Jdk111.release ctx env obj)
    objs;
  (* With capacity 8 and 100 sequentially-used objects, monitors must
     have been evicted and recycled. *)
  check "resident bounded" true (Jdk111.resident_monitors ctx <= 9);
  let s = Lock_stats.snapshot (Jdk111.stats ctx) in
  let recycles = List.assoc "cache.recycles" s.Lock_stats.extra in
  check "recycled monitors" true (recycles > 50);
  let free_hits = List.assoc "cache.free_hits" s.Lock_stats.extra in
  check "free list reused" true (free_hits > 50)

let test_cache_small_working_set_stays_resident () =
  let runtime, ctx, heap = small_cache () in
  let env = Runtime.main_env runtime in
  let objs = H.alloc_many heap 4 in
  for _ = 1 to 50 do
    Array.iter
      (fun obj ->
        Jdk111.acquire ctx env obj;
        Jdk111.release ctx env obj)
      objs
  done;
  let s = Lock_stats.snapshot (Jdk111.stats ctx) in
  (* Under capacity: 4 misses total, everything else hits. *)
  check_int "misses" 4 (extra_or_zero s "cache.misses");
  check_int "recycles" 0 (extra_or_zero s "cache.recycles")

let test_cache_monitor_stable_while_held () =
  (* An object's monitor must never be recycled while locked, even
     under pressure from many other objects. *)
  let runtime, ctx, heap = small_cache () in
  let env = Runtime.main_env runtime in
  let held = H.alloc heap in
  Jdk111.acquire ctx env held;
  let objs = H.alloc_many heap 50 in
  Array.iter
    (fun obj ->
      Jdk111.acquire ctx env obj;
      Jdk111.release ctx env obj)
    objs;
  check "still held" true (Jdk111.holds ctx env held);
  Jdk111.release ctx env held;
  check "released" false (Jdk111.holds ctx env held)

(* ibm112's cold path is jdk111's cache.  With promotion out of reach
   and the same small cache, one op sequence must leave both with the
   same cache counters and residents.  The sequence holds up to three
   objects at once (re-entrantly when it draws one twice), so eviction
   meets held and idle entries, and evicted monitors come back through
   the free list. *)
let cache_footprint scheme =
  let runtime = Runtime.create () in
  let (s : Scheme_intf.packed), resident = scheme runtime in
  let env = Runtime.main_env runtime in
  let objs = H.alloc_many (H.create ()) 40 in
  let rng = Tl_util.Prng.create 7 in
  let held = Queue.create () in
  for _ = 1 to 3000 do
    if Queue.length held = 3 || (Queue.length held > 0 && Tl_util.Prng.bool rng) then
      s.release env (Queue.pop held)
    else begin
      let obj = Tl_util.Prng.pick rng objs in
      s.acquire env obj;
      s.notify env obj;
      Queue.push obj held
    end
  done;
  Queue.iter (s.release env) held;
  let snap = s.stats () in
  ( List.map
      (fun k -> (k, extra_or_zero snap k))
      [ "cache.lookups"; "cache.misses"; "cache.free_hits"; "cache.recycles" ],
    resident () )

let test_ibm112_cold_path_is_jdk111 () =
  let jdk111 runtime =
    let params = { Jdk111.cache_capacity = 8; free_list_capacity = 4 } in
    let ctx = Jdk111.create_with ~params runtime in
    (Scheme_intf.pack (module Jdk111) ctx, fun () -> Jdk111.resident_monitors ctx)
  in
  let ibm112 runtime =
    let params =
      {
        Ibm112.default_params with
        promotion_threshold = max_int;
        cache = { Jdk111.cache_capacity = 8; free_list_capacity = 4 };
      }
    in
    let ctx = Ibm112.create_with ~params runtime in
    (Scheme_intf.pack (module Ibm112) ctx, fun () -> Ibm112.resident_monitors ctx)
  in
  let counters, resident = cache_footprint jdk111 in
  check "the sequence recycles" true (List.assoc "cache.recycles" counters > 100);
  check "the sequence reuses the free list" true (List.assoc "cache.free_hits" counters > 100);
  let ibm_counters, ibm_resident = cache_footprint ibm112 in
  Alcotest.(check (list (pair string int))) "cache counters" counters ibm_counters;
  check_int "resident monitors" resident ibm_resident

(* --- hot locks (ibm112) specifics --- *)

let hot_world ?(params = Ibm112.default_params) () =
  let runtime = Runtime.create () in
  let ctx = Ibm112.create_with ~params runtime in
  (runtime, ctx, H.create ())

let spin_ops ctx env obj n =
  for _ = 1 to n do
    Ibm112.acquire ctx env obj;
    Ibm112.release ctx env obj
  done

let test_hot_promotion () =
  let runtime, ctx, heap = hot_world () in
  let env = Runtime.main_env runtime in
  let obj = H.alloc heap in
  check_int "no hot slots used initially" 0 (Ibm112.hot_slots_used ctx);
  spin_ops ctx env obj 20;
  check_int "promoted to a hot slot" 1 (Ibm112.hot_slots_used ctx);
  let s = Lock_stats.snapshot (Ibm112.stats ctx) in
  check "hot fast ops observed" true (List.assoc "hot.fast_ops" s.Lock_stats.extra > 0);
  (* The lock still works after promotion. *)
  Ibm112.acquire ctx env obj;
  check "held" true (Ibm112.holds ctx env obj);
  Ibm112.release ctx env obj

let test_hot_slot_exhaustion () =
  let params = { Ibm112.default_params with hot_slots = 4; promotion_threshold = 3 } in
  let runtime, ctx, heap = hot_world ~params () in
  let env = Runtime.main_env runtime in
  let objs = H.alloc_many heap 10 in
  Array.iter (fun obj -> spin_ops ctx env obj 10) objs;
  check_int "only 4 slots ever used" 4 (Ibm112.hot_slots_used ctx);
  (* Cold objects still lock correctly after slots run out. *)
  Array.iter
    (fun obj ->
      Ibm112.acquire ctx env obj;
      check "held" true (Ibm112.holds ctx env obj);
      Ibm112.release ctx env obj)
    objs

let test_hot_promotion_during_multithreaded_use () =
  let params = { Ibm112.default_params with promotion_threshold = 5 } in
  let runtime, ctx, heap = hot_world ~params () in
  let obj = H.alloc heap in
  let counter = ref 0 in
  Runtime.run_parallel runtime 4 (fun _ env ->
      for _ = 1 to 2000 do
        Ibm112.acquire ctx env obj;
        counter := !counter + 1;
        Ibm112.release ctx env obj
      done);
  check_int "exclusion across promotion" 8000 !counter;
  check_int "promoted" 1 (Ibm112.hot_slots_used ctx)

(* --- registry --- *)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let test_registry_unknown_scheme_message () =
  (* the failure message must name the stranger and list every known
     scheme, so a CLI typo is self-diagnosing *)
  match Registry.find_exn "nosuch" (Runtime.create ()) with
  | _ -> Alcotest.fail "find_exn accepted an unknown scheme"
  | exception Invalid_argument msg ->
      check "names the unknown scheme" true (contains msg "nosuch");
      List.iter
        (fun known ->
          check ("lists " ^ known) true (contains msg known))
        (Registry.names ())

(* --- cjm table churn (qcheck) --- *)

(* Two domains cycle a working set 10x the single-shard table capacity
   through acquire/(wait)/release, forcing entries to be created,
   collide, probe, evaporate and have their slots reused.  Afterwards
   the conservation invariants must hold: empty table, balanced
   monitor census, and exact mutual exclusion throughout (no
   misattributed owner). *)
let prop_cjm_churn_conserves_entries =
  let gen = QCheck.Gen.(pair (int_range 0 10_000) (int_range 80 160)) in
  let arb = QCheck.make gen ~print:QCheck.Print.(pair int int) in
  QCheck.Test.make ~name:"cjm: 2-domain churn leaks no entries" ~count:5 arb
    (fun (seed, nobjs) ->
      let runtime = Runtime.create () in
      let config =
        { Tl_cjm.Cjm.shards = 1; initial_capacity = 8 }
      in
      let ctx = Tl_cjm.Cjm.create_with ~config runtime in
      let heap = H.create () in
      let objs = H.alloc_many heap nobjs in
      let reps = 5 in
      let counter = ref 0 in
      let owned = ref true in
      Runtime.run_parallel runtime 2 (fun d env ->
          Array.iteri
            (fun i obj ->
              for r = 1 to reps do
                Tl_cjm.Cjm.acquire ctx env obj;
                if not (Tl_cjm.Cjm.holds ctx env obj) then owned := false;
                counter := !counter + 1;
                if (seed + i + r + d) mod 7 = 0 then
                  Tl_cjm.Cjm.wait ~timeout:1e-4 ctx env obj;
                Tl_cjm.Cjm.release ctx env obj;
                if Tl_cjm.Cjm.holds ctx env obj then owned := false
              done)
            objs);
      !owned
      && !counter = 2 * nobjs * reps
      && Tl_cjm.Cjm.live_entries ctx = 0
      && Tl_cjm.Cjm.monitors_created ctx = Tl_cjm.Cjm.monitors_evaporated ctx)

(* The Index_table discipline, applied to the transient table: 2^23
   acquire/release cycles (with periodic wait-driven inflate/evaporate)
   on a deliberately tiny table must end exactly where they started —
   empty, with a balanced monitor census.  Any per-cycle leak of an
   entry, a free-list record or a fat monitor shows up as a non-zero
   residue at this magnitude. *)
let test_cjm_survives_deep_churn () =
  let runtime = Runtime.create () in
  let config =
    { Tl_cjm.Cjm.shards = 1; initial_capacity = 8 }
  in
  let ctx = Tl_cjm.Cjm.create_with ~config runtime in
  let env = Runtime.main_env runtime in
  let heap = H.create () in
  let objs = H.alloc_many heap 16 in
  let cycles = 1 lsl 23 in
  for i = 0 to cycles - 1 do
    let obj = objs.(i land 15) in
    Tl_cjm.Cjm.acquire ctx env obj;
    if i land 0xFFFFF = 0 then Tl_cjm.Cjm.wait ~timeout:1e-6 ctx env obj;
    Tl_cjm.Cjm.release ctx env obj
  done;
  check_int "table empty after 2^23 cycles" 0 (Tl_cjm.Cjm.live_entries ctx);
  check_int "monitor census balanced" (Tl_cjm.Cjm.monitors_created ctx)
    (Tl_cjm.Cjm.monitors_evaporated ctx);
  check "monitors did churn" true (Tl_cjm.Cjm.monitors_created ctx >= 8)

let specific_cases =
  [
    Alcotest.test_case "jdk111: cache recycles under pressure" `Quick
      test_cache_recycles_under_pressure;
    Alcotest.test_case "jdk111: small working set stays resident" `Quick
      test_cache_small_working_set_stays_resident;
    Alcotest.test_case "jdk111: monitor stable while held" `Quick
      test_cache_monitor_stable_while_held;
    Alcotest.test_case "ibm112: cold path caches as jdk111 does" `Quick
      test_ibm112_cold_path_is_jdk111;
    Alcotest.test_case "ibm112: promotion to hot slot" `Quick test_hot_promotion;
    Alcotest.test_case "ibm112: slot exhaustion leaves objects cold" `Quick
      test_hot_slot_exhaustion;
    Alcotest.test_case "ibm112: promotion under contention is safe" `Slow
      test_hot_promotion_during_multithreaded_use;
    Alcotest.test_case "registry: unknown scheme lists the known ones" `Quick
      test_registry_unknown_scheme_message;
    QCheck_alcotest.to_alcotest prop_cjm_churn_conserves_entries;
    Alcotest.test_case "cjm: 2^23-cycle churn leaves no residue" `Slow
      test_cjm_survives_deep_churn;
  ]

let () =
  let laws name = (name ^ " laws", Tl_test_helpers.Scheme_laws.cases ~name (world_of name)) in
  Alcotest.run "baselines"
    [
      laws "jdk111";
      laws "ibm112";
      laws "fat";
      laws "mcs";
      laws "thin-unlkcas";
      laws "thin-mpsync";
      laws "thin-count2";
      laws "cjm";
      ("specific", specific_cases);
    ]
