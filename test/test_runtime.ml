(* tl_runtime: thread-index table, parker, backoff, spinlock, and the
   spawn/join machinery. *)

module Tid = Tl_runtime.Tid
module Parker = Tl_runtime.Parker
module Backoff = Tl_runtime.Backoff
module Spinlock = Tl_runtime.Spinlock
module Runtime = Tl_runtime.Runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- tid table --- *)

let test_tid_allocate_release () =
  let table = Tid.create_table () in
  let a = Tid.allocate table ~name:"a" in
  let b = Tid.allocate table ~name:"b" in
  check_int "first index is 1" 1 a.Tid.index;
  check_int "second index is 2" 2 b.Tid.index;
  check_int "live" 2 (Tid.live_count table);
  check "lookup finds" true (Tid.lookup table 1 = Some a);
  Tid.release table a;
  check "lookup after release" true (Tid.lookup table 1 = None);
  (* smallest free index is recycled *)
  let c = Tid.allocate table ~name:"c" in
  check_int "index 1 recycled" 1 c.Tid.index

let test_tid_release_errors () =
  let table = Tid.create_table () in
  let a = Tid.allocate table ~name:"a" in
  Tid.release table a;
  (match Tid.release table a with
  | () -> Alcotest.fail "double release must raise"
  | exception Invalid_argument _ -> ());
  check_int "live" 0 (Tid.live_count table)

let test_tid_never_zero () =
  (* index 0 means "unlocked" in the lock word; it must never be
     allocated *)
  let table = Tid.create_table () in
  for _ = 1 to 100 do
    let d = Tid.allocate table ~name:"x" in
    check "index positive" true (d.Tid.index >= 1)
  done

let test_tid_concurrent_unique () =
  let table = Tid.create_table () in
  let runtime = Runtime.create () in
  let results = Array.make 8 [] in
  Runtime.run_parallel runtime 8 (fun i _env ->
      results.(i) <-
        List.init 200 (fun _ -> (Tid.allocate table ~name:"w").Tid.index));
  let all = List.concat (Array.to_list results) in
  check_int "all distinct" 1600 (List.length (List.sort_uniq compare all))

(* --- parker --- *)

let test_parker_permit_before_park () =
  let p = Parker.create () in
  Parker.unpark p;
  check "has permit" true (Parker.has_permit p);
  Parker.park p (* returns immediately *);
  check "permit consumed" false (Parker.has_permit p)

let test_parker_unpark_wakes () =
  let p = Parker.create () in
  let woke = Atomic.make false in
  let t =
    Thread.create
      (fun () ->
        Parker.park p;
        Atomic.set woke true)
      ()
  in
  Unix.sleepf 0.02;
  check "still parked" false (Atomic.get woke);
  Parker.unpark p;
  Thread.join t;
  check "woke" true (Atomic.get woke)

let test_parker_permits_do_not_accumulate () =
  let p = Parker.create () in
  Parker.unpark p;
  Parker.unpark p;
  Parker.park p;
  check "second park would block: only one permit" false (Parker.has_permit p)

let test_parker_timeout () =
  let p = Parker.create () in
  let t0 = Unix.gettimeofday () in
  let got = Parker.park_timeout p ~seconds:0.05 in
  let dt = Unix.gettimeofday () -. t0 in
  check "timed out" false got;
  check "waited roughly the timeout" true (dt >= 0.045 && dt < 1.0);
  Parker.unpark p;
  check "permit case returns true" true (Parker.park_timeout p ~seconds:0.05)

(* --- backoff --- *)

let test_backoff_counts () =
  let b = Backoff.create ~policy:Backoff.Busy () in
  check_int "fresh" 0 (Backoff.steps b);
  for _ = 1 to 5 do
    Backoff.once b
  done;
  check_int "five steps" 5 (Backoff.steps b);
  Backoff.reset b;
  check_int "reset" 0 (Backoff.steps b)

let test_backoff_policies_terminate () =
  List.iter
    (fun policy ->
      let b = Backoff.create ~policy () in
      for _ = 1 to 20 do
        Backoff.once b
      done)
    [ Backoff.Busy; Backoff.Yield; Backoff.Yield_sleep ]

(* --- spinlock --- *)

let test_spinlock_mutual_exclusion () =
  let lock = Spinlock.create () in
  let counter = ref 0 in
  let runtime = Runtime.create () in
  Runtime.run_parallel runtime 4 (fun _ _env ->
      for _ = 1 to 5000 do
        Spinlock.acquire lock;
        incr counter;
        Spinlock.release lock
      done);
  check_int "counter" 20000 !counter

let test_spinlock_try () =
  let lock = Spinlock.create () in
  check "try on free succeeds" true (Spinlock.try_acquire lock);
  check "try on held fails" false (Spinlock.try_acquire lock);
  Spinlock.release lock;
  check "free again" true (Spinlock.try_acquire lock)

(* --- runtime --- *)

let test_env_preshifted () =
  let runtime = Runtime.create () in
  let env = Runtime.main_env runtime in
  check_int "pre-shift"
    (env.Runtime.descriptor.Tid.index lsl Runtime.lock_word_shift)
    env.Runtime.shifted_index;
  check "main env cached" true (Runtime.main_env runtime == env)

let test_spawn_join_exception () =
  let runtime = Runtime.create () in
  let h = Runtime.spawn runtime (fun _env -> failwith "boom") in
  match Runtime.join h with
  | () -> Alcotest.fail "join must re-raise"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg

let test_spawn_releases_index () =
  let runtime = Runtime.create () in
  ignore (Runtime.main_env runtime);
  let before = Tid.live_count (Runtime.tid_table runtime) in
  let hs = List.init 10 (fun _ -> Runtime.spawn runtime (fun _ -> ())) in
  List.iter Runtime.join hs;
  check_int "indices released after join" before
    (Tid.live_count (Runtime.tid_table runtime))

let test_domain_backend () =
  let runtime = Runtime.create () in
  let hit = Atomic.make false in
  let h =
    Runtime.spawn ~backend:Runtime.Domain_backend runtime (fun _env -> Atomic.set hit true)
  in
  Runtime.join h;
  check "domain ran" true (Atomic.get hit)

let () =
  Alcotest.run "runtime"
    [
      ( "tid",
        [
          Alcotest.test_case "allocate/release/recycle" `Quick test_tid_allocate_release;
          Alcotest.test_case "double release raises" `Quick test_tid_release_errors;
          Alcotest.test_case "index 0 never allocated" `Quick test_tid_never_zero;
          Alcotest.test_case "concurrent allocation unique" `Slow test_tid_concurrent_unique;
        ] );
      ( "parker",
        [
          Alcotest.test_case "permit before park" `Quick test_parker_permit_before_park;
          Alcotest.test_case "unpark wakes parked thread" `Slow test_parker_unpark_wakes;
          Alcotest.test_case "permits do not accumulate" `Quick
            test_parker_permits_do_not_accumulate;
          Alcotest.test_case "timed park" `Quick test_parker_timeout;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "step counting" `Quick test_backoff_counts;
          Alcotest.test_case "all policies terminate" `Quick test_backoff_policies_terminate;
        ] );
      ( "spinlock",
        [
          Alcotest.test_case "mutual exclusion" `Slow test_spinlock_mutual_exclusion;
          Alcotest.test_case "try_acquire" `Quick test_spinlock_try;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "env carries pre-shifted index" `Quick test_env_preshifted;
          Alcotest.test_case "join re-raises" `Quick test_spawn_join_exception;
          Alcotest.test_case "spawn releases index" `Quick test_spawn_releases_index;
          Alcotest.test_case "domain backend" `Slow test_domain_backend;
        ] );
    ]
