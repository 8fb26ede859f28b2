(* Model checking the shipped thin lock: exhaustive and bounded schedule
   exploration of lib/core/thin.ml (compiled against the counting,
   schedulable Atomic of lib/sim/shim), adversary threads that show the
   checker has teeth, and the per-path access counts of §3.3. *)

open Tl_sim
module Atomic = Tl_atomic_shim.Atomic
module Runtime = Tl_runtime.Runtime
module Parker = Tl_runtime.Parker
module Header = Tl_heap.Header
module Fatlock = Tl_monitor.Fatlock
module Montable = Tl_monitor.Montable

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every exploration prints its tally, so the output records the paths. *)
let report name outcome =
  Format.printf "%s: %a@." name Explore.pp_outcome outcome;
  outcome

let assert_safe name outcome =
  let outcome = report name outcome in
  (match outcome.Explore.violation with
  | Some v ->
      Alcotest.failf "violation: %s (schedule: %s)" v.Explore.message
        (String.concat "," (List.map string_of_int v.Explore.schedule))
  | None -> ());
  check "some paths completed" true (outcome.Explore.completed_paths > 0)

let assert_caught name outcome =
  let outcome = report name outcome in
  check "violation found" true (outcome.Explore.violation <> None);
  Option.get outcome.Explore.violation

let exhaustive ?nesting ?preemption_bound ~threads ~iterations () =
  Explore.explore ?preemption_bound
    (Thin_check.lockers ?nesting ~threads ~iterations)

let sampled ?nesting ~threads ~iterations ~schedules () =
  Explore.sample ~schedules ~seed:42 (Thin_check.lockers ?nesting ~threads ~iterations)

let test_explorer_counts_paths () =
  (* Two threads of one write each, on separate cells: exactly the two
     orders. *)
  let outcome =
    Explore.explore (fun _ ->
        let cells = [| Atomic.make 0; Atomic.make 0 |] in
        {
          Explore.threads = Array.map (fun c _ -> Atomic.set c 1) cells;
          invariant = (fun () -> None);
          final = (fun () -> None);
        })
  in
  check_int "paths" 2 outcome.Explore.explored_paths;
  check_int "completed" 2 outcome.Explore.completed_paths

let test_lost_wakeup_is_a_deadlock () =
  let v =
    assert_caught "park with nobody to unpark"
      (Explore.explore (fun _ ->
           {
             Explore.threads = [| (fun env -> Parker.park env.Runtime.parker) |];
             invariant = (fun () -> None);
             final = (fun () -> None);
           }))
  in
  check "reported as a deadlock" true (String.starts_with ~prefix:"deadlock" v.Explore.message)

let test_two_threads_one_iteration () =
  let outcome = exhaustive ~threads:2 ~iterations:1 () in
  assert_safe "2 x 1, exhaustive" outcome;
  check_int "no path cut" 0 outcome.Explore.truncated_paths

let test_two_threads_two_iterations_sampled () =
  assert_safe "2 x 2, sampled" (sampled ~threads:2 ~iterations:2 ~schedules:2_000 ())

let test_two_threads_two_iterations_bounded () =
  assert_safe "2 x 2, preemption bound 4"
    (exhaustive ~preemption_bound:4 ~threads:2 ~iterations:2 ())

let test_two_threads_nested () =
  let outcome = exhaustive ~nesting:2 ~preemption_bound:3 ~threads:2 ~iterations:1 () in
  assert_safe "2 x 1 at nesting 2, preemption bound 3" outcome;
  check_int "no path cut" 0 outcome.Explore.truncated_paths

let test_three_threads_sampled () =
  assert_safe "3 x 1, sampled" (sampled ~threads:3 ~iterations:1 ~schedules:3_000 ())

let test_four_threads_sampled () =
  assert_safe "4 x 3, sampled" (sampled ~threads:4 ~iterations:3 ~schedules:500 ())

let test_deep_nesting_sampled () =
  (* Nesting 300 overflows the 8-bit count under contention. *)
  assert_safe "2 x 1 at nesting 300, sampled"
    (sampled ~nesting:300 ~threads:2 ~iterations:1 ~schedules:100 ())

(* --- adversary threads on the real lock word and monitor table --- *)

(* A correct release followed by a blind store of the unlocked pattern:
   releasing a lock no longer held, which can unlock another thread's
   fresh acquisition out from under it. *)
let blind_release t env =
  Thin_check.release t env;
  let lw = Thin_check.lockword t in
  Atomic.set lw (Header.hdr_bits (Atomic.get lw))

(* On contention, inflate someone else's thin lock in place with a
   monitor of its own: the owner-only-writes discipline broken. *)
let rec nonowner_acquire t env =
  let me = env.Runtime.descriptor.Tl_runtime.Tid.index in
  let lw = Thin_check.lockword t in
  let word = Atomic.get lw in
  if Header.is_thin_locked word && Header.thin_owner word <> me then begin
    let fat = Fatlock.create_locked ~owner:me ~count:1 () in
    let index = Montable.allocate (Thin_check.montable t) ~lockword:lw fat in
    Atomic.set lw (Header.inflated_word ~hdr:(Header.hdr_bits word) ~monitor_index:index)
  end
  else if
    Header.is_unlocked word
    && not (Atomic.compare_and_set lw word (word lor env.Runtime.shifted_index))
  then nonowner_acquire t env
  else if Header.is_inflated word then Thin_check.acquire t env

(* A release that survives dispossession, so a world with a broken
   deflater runs on to the breach it causes. *)
let lenient_release t env =
  try Thin_check.release t env with Fatlock.Illegal_monitor_state _ -> ()

(* Checks idleness, then stores the thin-unlocked word: no
   deflation-in-progress bit, no atomic retirement. *)
let no_handshake_deflater t _env =
  let lw = Thin_check.lockword t in
  let word = Atomic.get lw in
  if Header.is_inflated word then
    match Montable.find (Thin_check.montable t) (Header.monitor_index word) with
    | Some fat when Fatlock.is_idle fat -> Atomic.set lw (Header.hdr_bits word)
    | _ -> ()

let two_lockers ?acquire ?release runtime =
  let t = Thin_check.create runtime in
  Thin_check.world t
    (Array.init 2 (fun _ -> Thin_check.locker ?acquire ?release ~iterations:2 t))

let test_blind_release_caught () =
  ignore
    (assert_caught "blind release"
       (Explore.explore (two_lockers ~release:blind_release)))

let test_nonowner_inflation_caught () =
  ignore
    (assert_caught "non-owner inflation"
       (Explore.explore (two_lockers ~acquire:nonowner_acquire)))

(* --- deflation --- *)

let test_deflater_deflates_idle () =
  let t = Thin_check.create ~inflated:true (Runtime.create ()) in
  let word = Stdlib.Atomic.get (Thin_check.lockword t) in
  check "starts inflated" true (Header.is_inflated word);
  check "deflated" true (Thin_check.deflate t = `Deflated);
  check_int "word back to thin-unlocked" (Header.hdr_bits word)
    (Stdlib.Atomic.get (Thin_check.lockword t));
  check "slot freed" true (Montable.find (Thin_check.montable t) (Header.monitor_index word) = None)

let test_deflater_aborts_on_held () =
  let runtime = Runtime.create () in
  let t = Thin_check.create ~inflated:true runtime in
  let env = Runtime.register_current runtime ~name:"holder" in
  let word = Stdlib.Atomic.get (Thin_check.lockword t) in
  Thin_check.acquire t env;
  check "busy" true (Thin_check.deflate t = `Busy);
  check_int "word untouched (bit cleared)" word (Stdlib.Atomic.get (Thin_check.lockword t));
  let fat = Montable.get (Thin_check.montable t) (Header.monitor_index word) in
  check "monitor not retired" false (Fatlock.is_retired fat);
  check "holder undisturbed" true (Fatlock.holds env fat);
  Thin_check.release t env

let deflation_world ?(deflater = Thin_check.deflater) ?release ~lockers ~iterations runtime =
  let t = Thin_check.create ~inflated:true runtime in
  Thin_check.world t
    (Array.append
       (Array.init lockers (fun _ -> Thin_check.locker ?release ~iterations t))
       [| deflater t |])

(* Every schedule of one locker (2 rounds, entering through the inflated
   monitor and, once the deflater got there first, through the rewritten
   thin word) against the real handshake. *)
let test_deflate_vs_locker_exhaustive () =
  let outcome = Explore.explore (deflation_world ~lockers:1 ~iterations:2) in
  assert_safe "1 locker x 2 vs deflater, exhaustive" outcome;
  check_int "no path cut" 0 outcome.Explore.truncated_paths

let test_deflate_vs_two_lockers () =
  assert_safe "2 lockers x 1 vs deflater, preemption bound 3"
    (Explore.explore ~preemption_bound:3 (deflation_world ~lockers:2 ~iterations:1));
  assert_safe "2 lockers x 2 vs deflater, sampled"
    (Explore.sample ~schedules:2_000 ~seed:42 (deflation_world ~lockers:2 ~iterations:2))

(* The locker that enters the monitor between the check and the store
   is dispossessed: its release finds a thin word it does not own. *)
let test_buggy_deflater_caught_exhaustive () =
  let v =
    assert_caught "no-handshake deflater vs 1 locker"
      (Explore.explore
         (deflation_world ~deflater:no_handshake_deflater ~lockers:1 ~iterations:1))
  in
  check "the dispossessed owner's release raises" true
    (String.starts_with ~prefix:"thread 0 raised" v.Explore.message)

(* With two lockers the headline disaster: a second thread inside the
   critical section beside the dispossessed first.  The bug also
   strands the first thread's monitor, so many schedules end in a lost
   wakeup instead; random schedules are drawn until one breaches. *)
let test_buggy_deflater_violates_exclusion () =
  let world =
    deflation_world ~deflater:no_handshake_deflater ~release:lenient_release ~lockers:2
      ~iterations:2
  in
  let rec draw seed =
    if seed = 1_000 then Alcotest.fail "no schedule breached mutual exclusion"
    else
      match (Explore.sample ~schedules:1 ~seed world).Explore.violation with
      | Some v when String.starts_with ~prefix:"mutual exclusion" v.Explore.message ->
          Format.printf "no-handshake deflater vs 2 lockers: breach at seed %d: %s@." seed
            v.Explore.message
      | Some _ | None -> draw (seed + 1)
  in
  draw 0

(* --- §3.3 counts, from the shipped code --- *)

let counts name = List.assoc name (Thin_check.solo_counts ())

let test_initial_path_counts () =
  let c = counts "acquire (unlocked)" in
  check_int "exactly one CAS to lock" 1 c.Atomic.cas;
  check_int "one load to build the old value" 1 c.Atomic.get;
  check_int "nothing else" 2 (Atomic.total c)

let test_release_path_counts () =
  let c = counts "release (count 0)" in
  check_int "no CAS to unlock" 0 c.Atomic.cas;
  check_int "one load" 1 c.Atomic.get;
  check_int "one Atomic.set" 1 c.Atomic.set;
  check_int "nothing else" 2 (Atomic.total c)

let test_nested_path_counts () =
  let a = counts "acquire (nested)" in
  check_int "nested lock: CAS attempted once (fails)" 1 a.Atomic.cas;
  check_int "nested lock: one set" 1 a.Atomic.set;
  let r = counts "release (nested)" in
  check_int "nested unlock: no CAS" 0 r.Atomic.cas;
  check_int "nested unlock: one set" 1 r.Atomic.set

let test_fat_path_costs_more () =
  let thin = Atomic.total (counts "acquire (unlocked)") + Atomic.total (counts "release (count 0)") in
  let fat = counts "lock+unlock via fat monitor" in
  check "the fat path reads the word more often and still CASes" true
    (fat.Atomic.get > 2 && fat.Atomic.cas >= 1 && Atomic.total fat >= thin)

let test_solo_deep_nesting_state () =
  let runtime = Runtime.create () in
  let t = Thin_check.create runtime in
  let env = Runtime.register_current runtime ~name:"solo" in
  Thin_check.locker ~nesting:3 ~iterations:2 t env;
  check_int "lock word back to unlocked" 0
    (Header.thin_count (Stdlib.Atomic.get (Thin_check.lockword t)));
  check "unlocked" true (Header.is_unlocked (Stdlib.Atomic.get (Thin_check.lockword t)))

let test_overflow_inflation_in_model () =
  let runtime = Runtime.create () in
  let t = Thin_check.create runtime in
  let env = Runtime.register_current runtime ~name:"solo" in
  for _ = 1 to 257 do
    Thin_check.acquire t env
  done;
  let word = Stdlib.Atomic.get (Thin_check.lockword t) in
  check "word inflated after deep nesting" true (Header.is_inflated word);
  for _ = 1 to 257 do
    Thin_check.release t env
  done;
  check_int "fat monitor released" 0
    (Fatlock.owner (Montable.get (Thin_check.montable t) (Header.monitor_index word)))

let () =
  Alcotest.run "sim"
    [
      ( "explore",
        [
          Alcotest.test_case "explorer path counting" `Quick test_explorer_counts_paths;
          Alcotest.test_case "2 threads x 1 iter: exhaustive, safe" `Quick
            test_two_threads_one_iteration;
          Alcotest.test_case "2 threads x 2 iters: sampled, safe" `Slow
            test_two_threads_two_iterations_sampled;
          Alcotest.test_case "2 threads nested: exhaustive, safe" `Slow test_two_threads_nested;
          Alcotest.test_case "3 threads x 1 iter: sampled, safe" `Slow
            test_three_threads_sampled;
          Alcotest.test_case "4 threads x 3 iters: sampled, safe" `Slow test_four_threads_sampled;
          Alcotest.test_case "inflation by overflow under contention: sampled" `Slow
            test_deep_nesting_sampled;
          Alcotest.test_case "blind release is caught" `Quick test_blind_release_caught;
          Alcotest.test_case "non-owner inflation is caught" `Quick
            test_nonowner_inflation_caught;
          Alcotest.test_case "lost wakeup is a deadlock" `Quick test_lost_wakeup_is_a_deadlock;
          Alcotest.test_case "2 threads x 2 iters: exhaustive within 4 preemptions" `Slow
            test_two_threads_two_iterations_bounded;
        ] );
      ( "deflation",
        [
          Alcotest.test_case "model deflater deflates an idle monitor" `Quick
            test_deflater_deflates_idle;
          Alcotest.test_case "model deflater aborts on a held monitor" `Quick
            test_deflater_aborts_on_held;
          Alcotest.test_case "deflate vs locker: exhaustive, safe" `Slow
            test_deflate_vs_locker_exhaustive;
          Alcotest.test_case "deflate vs 2 lockers: sampled, safe" `Slow
            test_deflate_vs_two_lockers;
          Alcotest.test_case "no-handshake deflater caught (exhaustive)" `Quick
            test_buggy_deflater_caught_exhaustive;
          Alcotest.test_case "no-handshake deflater breaks exclusion (sampled)" `Slow
            test_buggy_deflater_violates_exclusion;
        ] );
      ( "counts",
        [
          Alcotest.test_case "initial lock: 1 CAS, 1 load" `Quick test_initial_path_counts;
          Alcotest.test_case "unlock: one get, one set" `Quick test_release_path_counts;
          Alcotest.test_case "nested paths: no extra atomics" `Quick test_nested_path_counts;
          Alcotest.test_case "fat path costs more" `Quick test_fat_path_costs_more;
          Alcotest.test_case "solo deep nesting leaves clean state" `Quick
            test_solo_deep_nesting_state;
          Alcotest.test_case "overflow inflation in the model" `Quick
            test_overflow_inflation_in_model;
        ] );
    ]
