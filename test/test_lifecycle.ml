(* Lifecycle subsystem tests: policy decisions, reaper scans, the
   headline stress — deflation running concurrently with live lockers,
   with no lost wakeups and no stale-monitor acquires — and the
   feedback controller's property battery: regime convergence,
   hysteresis bounds, the exploration budget, and the hapax
   pipeline guard. *)

open Tl_core
open Tl_lifecycle
module Header = Tl_heap.Header
module Runtime = Tl_runtime.Runtime
module Montable = Tl_monitor.Montable
module Fatlock = Tl_monitor.Fatlock
module Ctl = Controller
module H = Tl_heap.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let direct () =
  let runtime = Runtime.create () in
  let ctx = Thin.create runtime in
  let heap = H.create () in
  (runtime, ctx, heap)

(* Inflate an object's lock from its owner (wait with a tiny timeout
   inflates with cause `Wait) and leave it idle. *)
let inflate_idle ctx env obj =
  Thin.acquire ctx env obj;
  Thin.wait ~timeout:0.001 ctx env obj;
  Thin.release ctx env obj;
  assert (Header.is_inflated (Thin.lock_word obj))

let extra_of ctx key =
  let s = Lock_stats.snapshot (Thin.stats ctx) in
  match List.assoc_opt key s.Lock_stats.extra with Some n -> n | None -> 0

(* --- policies --- *)

let test_policy_decisions () =
  let c ~idle ~episodes = { Policy.idle_scans = idle; contended_episodes = episodes } in
  check "never never fires" false (Policy.never.Policy.decide (c ~idle:100 ~episodes:0));
  check "always_idle needs one idle scan" false
    (Policy.always_idle.Policy.decide (c ~idle:0 ~episodes:0));
  check "always_idle fires when idle" true
    (Policy.always_idle.Policy.decide (c ~idle:1 ~episodes:9));
  let p = Policy.idle_for ~quiescence_points:3 in
  check "idle_for below threshold" false (p.Policy.decide (c ~idle:2 ~episodes:0));
  check "idle_for at threshold" true (p.Policy.decide (c ~idle:3 ~episodes:0));
  check "zero_contended refuses contended" false
    (Policy.zero_contended_episodes.Policy.decide (c ~idle:5 ~episodes:1));
  check "zero_contended accepts uncontended" true
    (Policy.zero_contended_episodes.Policy.decide (c ~idle:1 ~episodes:0));
  let b = Policy.both Policy.always_idle Policy.never in
  check "both is conjunction" false (b.Policy.decide (c ~idle:5 ~episodes:0))

(* --- single-threaded reaper scans --- *)

let test_scan_deflates_idle () =
  let runtime, ctx, heap = direct () in
  let env = Runtime.main_env runtime in
  let obj = H.alloc heap in
  inflate_idle ctx env obj;
  check_int "one live monitor" 1 (Montable.live (Thin.montable ctx));
  let scan = Reaper.scan_once ctx in
  check_int "scanned" 1 scan.Reaper.scanned;
  check_int "deflated" 1 scan.Reaper.deflated;
  check "word back to thin" false (Header.is_inflated (Thin.lock_word obj));
  check_int "no live monitors" 0 (Montable.live (Thin.montable ctx));
  check "reaper.scans recorded" true (extra_of ctx "reaper.scans" >= 1);
  check "counted as non-quiescent" true (extra_of ctx "deflations.non_quiescent" >= 1);
  (* The object still locks fine, and re-inflation gets a fresh monitor. *)
  Thin.acquire ctx env obj;
  Thin.release ctx env obj

let test_scan_policy_hysteresis () =
  let runtime, ctx, heap = direct () in
  let env = Runtime.main_env runtime in
  let obj = H.alloc heap in
  inflate_idle ctx env obj;
  let policy = Policy.idle_for ~quiescence_points:3 in
  let s1 = Reaper.scan_once ~policy ctx in
  let s2 = Reaper.scan_once ~policy ctx in
  check_int "no candidate on scan 1" 0 s1.Reaper.candidates;
  check_int "no candidate on scan 2" 0 s2.Reaper.candidates;
  check "still inflated" true (Header.is_inflated (Thin.lock_word obj));
  (* Touching the lock resets the idle streak... *)
  Thin.acquire ctx env obj;
  Thin.release ctx env obj;
  let s3 = Reaper.scan_once ~policy ctx in
  check_int "streak reset by use" 0 s3.Reaper.deflated;
  (* ...and the third undisturbed scan after the reset deflates. *)
  let s4 = Reaper.scan_once ~policy ctx in
  check_int "still below threshold" 0 s4.Reaper.deflated;
  let s5 = Reaper.scan_once ~policy ctx in
  check_int "deflated on the third idle scan" 1 s5.Reaper.deflated;
  check "word back to thin" false (Header.is_inflated (Thin.lock_word obj))

let test_scan_aborts_on_held () =
  let runtime, ctx, heap = direct () in
  let env = Runtime.main_env runtime in
  let obj = H.alloc heap in
  inflate_idle ctx env obj;
  Thin.acquire ctx env obj;
  (* A policy hostile enough to nominate a held monitor: the handshake
     must abort, not strand the owner. *)
  let eager = Policy.v ~name:"eager" (fun _ -> true) in
  let scan = Reaper.scan_once ~policy:eager ctx in
  check_int "nominated" 1 scan.Reaper.candidates;
  check_int "not deflated" 0 scan.Reaper.deflated;
  check_int "handshake aborted" 1 scan.Reaper.aborted;
  check "still inflated" true (Header.is_inflated (Thin.lock_word obj));
  check "owner still holds" true (Thin.holds ctx env obj);
  check "abort recorded" true (extra_of ctx "deflation.aborted_handshakes" >= 1);
  Thin.release ctx env obj;
  check_int "deflates once released" 1 (Reaper.scan_once ~policy:eager ctx).Reaper.deflated

let test_zero_contended_policy_keeps_contended_locks_fat () =
  let runtime, ctx, heap = direct () in
  let env = Runtime.main_env runtime in
  let quiet = H.alloc heap in
  let hot = H.alloc heap in
  inflate_idle ctx env quiet;
  (* Make [hot] develop a queue: hold it while a spawned thread blocks
     on the fat path. *)
  inflate_idle ctx env hot;
  Thin.acquire ctx env hot;
  let h =
    Runtime.spawn runtime (fun env' ->
        Thin.acquire ctx env' hot;
        Thin.release ctx env' hot)
  in
  Unix.sleepf 0.05;
  Thin.release ctx env hot;
  Runtime.join h;
  let scan = Reaper.scan_once ~policy:Policy.zero_contended_episodes ctx in
  check_int "only the quiet monitor deflated" 1 scan.Reaper.deflated;
  check "hot lock stays fat" true (Header.is_inflated (Thin.lock_word hot));
  check "quiet lock thin again" false (Header.is_inflated (Thin.lock_word quiet))

(* --- the feedback controller: synthetic stat streams --- *)

let ctl_config ?(epoch_scans = 4) ?(explore_budget = 0) ?(explore_refill = 0)
    ?(initial_policy = Ctl.default_policy) () =
  {
    Ctl.epoch_scans;
    patience = 2;
    margin = 0.25;
    (* The property battery pins regime convergence at the heavy
       thrash weight (see Controller.default_config for why the
       shipped default is lighter). *)
    thrash_weight = 4.0;
    ewma_alpha = 0.3;
    explore_budget;
    explore_refill;
    initial_policy;
  }

(* Closed-loop synthetic census over one shard: [hot] monitors pinned
   busy-and-contended, [objects - hot] cold monitors going idle, with
   deflation decided by the controller's own incumbent policy and a
   Bresenham accumulator re-inflating deflated monitors at exactly
   rate [reinflate] — no randomness, so every sampled regime is a
   deterministic stream.  Returns the controller and the switches it
   emitted, each stamped with the census scan it fired on. *)
let run_regime ~config ~epochs ~objects:k ~hot ~reinflate:r () =
  let t = Ctl.create ~config ~nshards:1 () in
  let cold = k - hot in
  let live = ref (List.init cold (fun i -> (i, 1))) in
  let next_tag = ref k and acc = ref 0.0 in
  let switches = ref [] in
  for scan = 1 to epochs * config.Ctl.epoch_scans do
    let policy = Ctl.policy_for t 0 in
    for h = 0 to hot - 1 do
      Ctl.observe t
        {
          Ctl.shard = 0;
          tag = 1_000_000 + h;
          idle_scans = 0;
          contended_episodes = 1;
          pipeline_quiet = true;
        }
    done;
    let survivors = ref [] and fresh = ref 0 in
    List.iter
      (fun (tag, idle) ->
        Ctl.observe t
          {
            Ctl.shard = 0;
            tag;
            idle_scans = idle;
            contended_episodes = 0;
            pipeline_quiet = true;
          };
        if
          policy.Policy.decide
            { Policy.idle_scans = idle; contended_episodes = 0 }
        then begin
          Ctl.note_deflated t ~shard:0 ~tag;
          acc := !acc +. r;
          if !acc >= 1.0 then begin
            (* prompt re-inflation: the same tag is back in the census
               next scan, where [observe] books the thrash *)
            acc := !acc -. 1.0;
            survivors := (tag, 1) :: !survivors
          end
          else incr fresh
        end
        else survivors := (tag, idle + 1) :: !survivors)
      !live;
    (* the cold population stays constant: evaporated monitors are
       replaced by fresh objects inflating for the first time *)
    for _ = 1 to !fresh do
      survivors := (!next_tag, 1) :: !survivors;
      incr next_tag
    done;
    live := !survivors;
    List.iter
      (fun sw -> switches := (scan, sw) :: !switches)
      (Ctl.scan_complete t)
  done;
  (t, List.rev !switches)

let stable_convergence ~config ~epochs ~want (t, switches) =
  let snap = (Ctl.snapshot t).(0) in
  let half_scan = epochs * config.Ctl.epoch_scans / 2 in
  if snap.Ctl.policy <> want then
    QCheck.Test.fail_reportf "converged to %s, wanted %s"
      (Ctl.policy_name snap.Ctl.policy) (Ctl.policy_name want);
  if List.length switches > 3 then
    QCheck.Test.fail_reportf "%d switches — oscillation"
      (List.length switches);
  (* the hysteresis structural bound: a switch needs [patience]
     consecutive winning epochs, so they cannot come faster *)
  if List.length switches > epochs / config.Ctl.patience then
    QCheck.Test.fail_reportf "switches outran the hysteresis bound";
  if not (List.for_all (fun (scan, _) -> scan <= half_scan) switches) then
    QCheck.Test.fail_reportf "switch after the convergence horizon";
  if snap.Ctl.explorations <> 0 then
    QCheck.Test.fail_reportf "unexpected exploration with a zero budget";
  true

let prop_idle_heavy_converges =
  let gen =
    QCheck.Gen.(triple (int_range 24 48) (int_range 1 3) (int_range 0 10))
  in
  let arb =
    QCheck.make gen ~print:(fun (k, hot, nr) ->
        Printf.sprintf "{objects=%d; hot=%d; reinflate=%d%%}" k hot nr)
  in
  QCheck.Test.make ~count:60
    ~name:"controller: idle-heavy regimes converge to always-idle" arb
    (fun (k, hot, nr) ->
      let config = ctl_config () in
      let epochs = 16 in
      stable_convergence ~config ~epochs ~want:(Ctl.n_policies - 1)
        (run_regime ~config ~epochs ~objects:k ~hot
           ~reinflate:(float_of_int nr /. 100.0)
           ()))

let prop_contention_heavy_converges =
  let gen =
    QCheck.Gen.(triple (int_range 32 48) (int_range 50 75) (int_range 60 100))
  in
  let arb =
    QCheck.make gen ~print:(fun (k, pc, nr) ->
        Printf.sprintf "{objects=%d; contended=%d%%; reinflate=%d%%}" k pc nr)
  in
  QCheck.Test.make ~count:60
    ~name:"controller: contention-heavy regimes converge to never" arb
    (fun (k, pc, nr) ->
      let config = ctl_config () in
      let epochs = 16 in
      stable_convergence ~config ~epochs ~want:0
        (run_regime ~config ~epochs ~objects:k ~hot:(k * pc / 100)
           ~reinflate:(float_of_int nr /. 100.0)
           ()))

(* Exploration accounting, end to end: from an eager start the
   controller learns the thrash (every deflation re-inflates), retreats
   to [never], then spends its whole token budget on periodic one-epoch
   excursions — each costing exactly two traced switches — and goes
   quiet once the bucket is dry (refill disabled). *)
let prop_exploration_budget_bounds_excursions =
  let gen = QCheck.Gen.(pair (int_range 1 4) (int_range 4 12)) in
  let arb =
    QCheck.make gen ~print:(fun (b, k) ->
        Printf.sprintf "{budget=%d; objects=%d}" b k)
  in
  QCheck.Test.make ~count:30
    ~name:"controller: exploration spends exactly its token budget" arb
    (fun (b, k) ->
      let config =
        ctl_config ~epoch_scans:2 ~explore_budget:b
          ~initial_policy:(Ctl.n_policies - 1) ()
      in
      let epochs = (3 * b) + 9 in
      let t, switches =
        run_regime ~config ~epochs ~objects:k ~hot:0 ~reinflate:1.0 ()
      in
      let snap = (Ctl.snapshot t).(0) in
      let explore_legs =
        List.length (List.filter (fun (_, sw) -> sw.Ctl.explore) switches)
      in
      snap.Ctl.policy = 0 (* the thrash keeps it at never *)
      && snap.Ctl.explorations = b
      && explore_legs = 2 * b (* out + back per excursion, never more *)
      && snap.Ctl.switches = 1 (* the single hysteresis retreat *)
      && Ctl.switches_total t = (2 * b) + 1
      (* dry bucket: nothing fires after the last excursion returns *)
      && List.for_all
           (fun (scan, _) ->
             scan <= ((3 * b) + 2) * config.Ctl.epoch_scans)
           switches)

(* --- the hapax pipeline guard (controller side) --- *)

(* A shard whose admission pipeline was seen non-quiet must hold an
   eager-ward switch pending — and fire it once the pipeline drains. *)
let test_pipeline_guard_holds_eager_switch () =
  let config = ctl_config ~epoch_scans:2 ~initial_policy:0 () in
  let t = Ctl.create ~config ~nshards:1 () in
  let feed ~quiet =
    for tag = 0 to 7 do
      Ctl.observe t
        {
          Ctl.shard = 0;
          tag;
          idle_scans = 1 + tag;
          contended_episodes = 0;
          (* one monitor with ticketed arrivals poisons the epoch *)
          pipeline_quiet = quiet || tag > 0;
        }
    done
  in
  let fired = ref [] in
  for _ = 1 to 8 do
    feed ~quiet:false;
    fired := !fired @ Ctl.scan_complete t
  done;
  check_int "no switch under a busy pipeline" 0 (List.length !fired);
  check_int "still at never" 0 (Ctl.snapshot t).(0).Ctl.policy;
  for _ = 1 to 2 do
    feed ~quiet:true;
    fired := !fired @ Ctl.scan_complete t
  done;
  match !fired with
  | [ sw ] ->
      check "eager-ward once drained" true (sw.Ctl.to_policy > sw.Ctl.from_policy);
      check "a hysteresis move, not an exploration" false sw.Ctl.explore;
      check "incumbent updated" true ((Ctl.snapshot t).(0).Ctl.policy > 0)
  | l -> Alcotest.failf "expected exactly one switch after drain, got %d" (List.length l)

(* The guard is direction-specific: retreating to a more conservative
   policy under a live pipeline is exactly what thrash calls for. *)
let test_pipeline_guard_allows_conservative_switch () =
  let config =
    ctl_config ~epoch_scans:2 ~initial_policy:(Ctl.n_policies - 1) ()
  in
  let t = Ctl.create ~config ~nshards:1 () in
  let fired = ref [] in
  for _ = 1 to 8 do
    for tag = 0 to 7 do
      Ctl.observe t
        {
          Ctl.shard = 0;
          tag;
          idle_scans = 1;
          contended_episodes = 0;
          pipeline_quiet = false;
        };
      Ctl.note_deflated t ~shard:0 ~tag
    done;
    fired := !fired @ Ctl.scan_complete t
  done;
  (match !fired with
  | [ sw ] ->
      check "conservative-ward" true (sw.Ctl.to_policy < sw.Ctl.from_policy);
      check_int "retreats all the way to never" 0 sw.Ctl.to_policy
  | l ->
      Alcotest.failf "expected exactly one conservative switch, got %d"
        (List.length l));
  check_int "incumbent is never" 0 (Ctl.snapshot t).(0).Ctl.policy

(* Integration: a real hapax monitor with a ticket in flight.  Domain 1
   drives tickets into the fat path while domain 0 runs controlled
   census scans: the controller's eager-ward switch must stay pending
   until the pipeline drains, then fire, then deflate. *)
let test_pipeline_guard_hapax_two_domains () =
  let runtime = Runtime.create () in
  let ctx =
    Thin.create_with
      ~config:{ Thin.default_config with Thin.fat_backend = Fatlock.Hapax }
      runtime
  in
  let heap = H.create () in
  let idle = H.alloc heap and hot = H.alloc heap in
  let controller =
    Ctl.create
      ~config:
        (ctl_config ~epoch_scans:1 ~initial_policy:0 ()
         |> fun c -> { c with Ctl.patience = 1 })
      ~nshards:1 ()
  in
  let fat_of obj = Montable.get (Thin.montable ctx) (Header.monitor_index (Thin.lock_word obj)) in
  let switches_during_traffic = ref (-1) in
  let pipeline_seen_busy = ref false in
  let held = Atomic.make false in
  Runtime.run_parallel ~backend:Runtime.Domain_backend runtime 2 (fun i env ->
      if i = 0 then begin
        inflate_idle ctx env idle;
        inflate_idle ctx env hot;
        Thin.acquire ctx env hot;
        Atomic.set held true;
        (* wait for domain 1's acquire to become a parked ticket *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Fatlock.pipeline_quiet (fat_of hot) && Unix.gettimeofday () < deadline do
          Thread.yield ()
        done;
        pipeline_seen_busy := not (Fatlock.pipeline_quiet (fat_of hot));
        (* several epochs with the ticket in flight: the idle monitor
           makes eager attractive, the hot one vetoes the move *)
        for _ = 1 to 3 do
          ignore (Reaper.scan_once ~controller ctx)
        done;
        switches_during_traffic := Ctl.switches_total controller;
        Thin.release ctx env hot
      end
      else begin
        (* domain 1: ride the admission pipeline through the window *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        while (not (Atomic.get held)) && Unix.gettimeofday () < deadline do
          Thread.yield ()
        done;
        Thin.acquire ctx env hot;
        Thin.release ctx env hot
      end);
  check "ticket was in flight during the scans" true !pipeline_seen_busy;
  check_int "no eager-ward switch while the pipeline was live" 0
    !switches_during_traffic;
  check_int "incumbent still never under traffic" 0
    (Ctl.snapshot controller).(0).Ctl.policy;
  (* world quiet, pipeline drained: the held streak fires, and the next
     scan deflates under the new eager incumbent *)
  ignore (Reaper.scan_once ~controller ctx);
  check "switch fires once drained" true (Ctl.switches_total controller >= 1);
  check "eager incumbent after drain" true ((Ctl.snapshot controller).(0).Ctl.policy > 0);
  let deflated = ref 0 in
  for _ = 1 to 6 do
    deflated := !deflated + (Reaper.scan_once ~controller ctx).Reaper.deflated
  done;
  check "census drains under the switched policy" true (!deflated >= 2);
  check_int "no live monitors left" 0 (Montable.live (Thin.montable ctx));
  (* and the deflated locks still work *)
  let env = Runtime.main_env runtime in
  Thin.acquire ctx env hot;
  Thin.release ctx env hot

(* --- switch packing --- *)

let prop_switch_packing_roundtrip =
  let gen =
    QCheck.Gen.(
      map
        (fun (shard, fp, tp, (score, explore)) ->
          { Ctl.shard; from_policy = fp; to_policy = tp; score; explore })
        (quad (int_bound 4095)
           (int_bound (Ctl.n_policies - 1))
           (int_bound (Ctl.n_policies - 1))
           (pair (int_bound 0xFFFFF) bool)))
  in
  let arb =
    QCheck.make gen ~print:(fun sw -> Format.asprintf "%a" Ctl.pp_switch sw)
  in
  QCheck.Test.make ~count:200
    ~name:"controller: switch arg packing round-trips" arb (fun sw ->
      Ctl.unpack_switch (Ctl.pack_switch sw) = sw)

(* --- quiescence-driven reaping --- *)

let test_quiescence_hook_reaps () =
  let runtime, ctx, heap = direct () in
  let env = Runtime.main_env runtime in
  let obj = H.alloc heap in
  Reaper.on_quiescence ~every:2 runtime ctx;
  inflate_idle ctx env obj;
  Runtime.quiescence_point ~env runtime;
  check "1st announcement: not yet (every=2)" true (Header.is_inflated (Thin.lock_word obj));
  Runtime.quiescence_point ~env runtime;
  check "2nd announcement deflates" false (Header.is_inflated (Thin.lock_word obj));
  check_int "points counted" 2 (Runtime.quiescence_count runtime)

(* Hooks fire in registration order, and announcing allocates nothing
   of its own: a replay announces every 64 ops with the reaper hooked,
   and every minor collection stops every domain. *)
let test_quiescence_hooks_ordered_and_allocation_free () =
  let runtime = Runtime.create () in
  let env = Runtime.main_env runtime in
  let fired = ref [] in
  Runtime.on_quiescence runtime (fun () -> fired := `First :: !fired);
  Runtime.on_quiescence runtime (fun () -> fired := `Second :: !fired);
  Runtime.quiescence_point ~env runtime;
  check "oldest hook first" true (List.rev !fired = [ `First; `Second ]);
  let runtime = Runtime.create () in
  let env = Runtime.main_env runtime in
  let count = ref 0 in
  Runtime.on_quiescence runtime (fun () -> incr count);
  Runtime.on_quiescence runtime (fun () -> incr count);
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Runtime.quiescence_point ~env runtime
  done;
  let words = Gc.minor_words () -. before in
  check_int "both hooks fired every time" 2_000 !count;
  check_int "minor words allocated by 1000 announcements" 0 (int_of_float words)

(* The bare announcement a replay tick makes: an env in hand, no hook,
   tracing off.  Passing the env must not box it. *)
let test_announcement_with_env_allocates_nothing () =
  let runtime = Runtime.create () in
  let env = Runtime.main_env runtime in
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Runtime.quiescence_point ~env runtime
  done;
  check_int "minor words allocated by 1000 announcements with ~env" 0
    (int_of_float (Gc.minor_words () -. before))

(* --- the headline stress: reaper under traffic --- *)

(* Few objects + several domains = constant contention inflations; an
   eager background reaper deflates any momentarily-idle monitor the
   whole time.  Any stale-monitor acquire or stranded owner surfaces as
   an exception through run_parallel or as an unreleasable lock. *)
let test_reaper_under_traffic () =
  let runtime, ctx, heap = direct () in
  let nobjs = 4 and domains = 4 and iterations = 1500 in
  let objs = Array.init nobjs (fun _ -> H.alloc heap) in
  let reaper = Reaper.start ~policy:Policy.always_idle ~interval:0.0 ctx in
  Runtime.run_parallel ~backend:Runtime.Domain_backend runtime domains (fun i env ->
      for j = 0 to iterations - 1 do
        let obj = objs.((i + j) mod nobjs) in
        Thin.acquire ctx env obj;
        if j mod 97 = 0 then Thin.wait ~timeout:0.0005 ctx env obj;
        Thin.release ctx env obj
      done);
  let totals = Reaper.stop reaper in
  check "reaper ran while lockers were active" true (Reaper.scans reaper > 0);
  check "non-quiescent deflations under traffic" true (totals.Reaper.deflated > 0);
  check "stat agrees" true (extra_of ctx "deflations.non_quiescent" > 0);
  (* Shutdown: with the world quiet, the census must drain to zero. *)
  let rec drain tries =
    if Montable.live (Thin.montable ctx) > 0 && tries > 0 then begin
      ignore (Reaper.scan_once ctx);
      drain (tries - 1)
    end
  in
  drain 4;
  check_int "monitors.live returns to 0 at shutdown" 0 (Montable.live (Thin.montable ctx));
  Array.iter
    (fun obj -> check "all words thin" false (Header.is_inflated (Thin.lock_word obj)))
    objs

(* Wait/notify ping-pong with an eager reaper attacking the monitor the
   whole time: a lost wakeup would stall a round into its 2-second
   timeout, which the elapsed-time assertion turns into a failure. *)
let test_reaper_no_lost_wakeups () =
  let runtime, ctx, heap = direct () in
  let obj = H.alloc heap in
  let rounds = 300 in
  let count = ref 0 in
  let eager = Policy.v ~name:"eager" (fun _ -> true) in
  let reaper = Reaper.start ~policy:eager ~interval:0.0 ctx in
  let t0 = Unix.gettimeofday () in
  let consumer =
    Runtime.spawn ~name:"consumer" runtime (fun env ->
        for _ = 1 to rounds do
          Thin.acquire ctx env obj;
          while !count = 0 do
            Thin.wait ~timeout:2.0 ctx env obj
          done;
          decr count;
          Thin.release ctx env obj
        done)
  in
  let producer =
    Runtime.spawn ~name:"producer" runtime (fun env ->
        for _ = 1 to rounds do
          Thin.acquire ctx env obj;
          incr count;
          Thin.notify ctx env obj;
          Thin.release ctx env obj;
          Thread.yield ()
        done)
  in
  Runtime.join producer;
  Runtime.join consumer;
  let elapsed = Unix.gettimeofday () -. t0 in
  ignore (Reaper.stop reaper);
  check_int "all rounds consumed" 0 !count;
  check "no wait timed out (no lost wakeup)" true (elapsed < 2.0);
  (* Quiet now: one scan must reclaim the monitor. *)
  ignore (Reaper.scan_once ctx);
  check_int "census drained" 0 (Montable.live (Thin.montable ctx))

let () =
  Alcotest.run "lifecycle"
    [
      ( "policy",
        [ Alcotest.test_case "decision table" `Quick test_policy_decisions ] );
      ( "reaper scans",
        [
          Alcotest.test_case "deflates idle monitors" `Quick test_scan_deflates_idle;
          Alcotest.test_case "idle_for hysteresis" `Quick test_scan_policy_hysteresis;
          Alcotest.test_case "aborts handshake on held monitor" `Quick test_scan_aborts_on_held;
          Alcotest.test_case "zero_contended keeps hot locks fat" `Slow
            test_zero_contended_policy_keeps_contended_locks_fat;
          Alcotest.test_case "quiescence-driven reaping" `Quick test_quiescence_hook_reaps;
          Alcotest.test_case "hooks ordered, announcing allocates nothing" `Quick
            test_quiescence_hooks_ordered_and_allocation_free;
          Alcotest.test_case "announcing with ~env allocates nothing" `Quick
            test_announcement_with_env_allocates_nothing;
        ] );
      ( "reaper under traffic",
        [
          Alcotest.test_case "deflation with live lockers" `Slow test_reaper_under_traffic;
          Alcotest.test_case "no lost wakeups under eager reaping" `Slow
            test_reaper_no_lost_wakeups;
        ] );
      ( "controller",
        [
          QCheck_alcotest.to_alcotest prop_idle_heavy_converges;
          QCheck_alcotest.to_alcotest prop_contention_heavy_converges;
          QCheck_alcotest.to_alcotest prop_exploration_budget_bounds_excursions;
          QCheck_alcotest.to_alcotest prop_switch_packing_roundtrip;
        ] );
      ( "pipeline guard",
        [
          Alcotest.test_case "eager-ward switch held while busy" `Quick
            test_pipeline_guard_holds_eager_switch;
          Alcotest.test_case "conservative retreat not vetoed" `Quick
            test_pipeline_guard_allows_conservative_switch;
          Alcotest.test_case "hapax tickets through a switch (2 domains)" `Slow
            test_pipeline_guard_hapax_two_domains;
        ] );
    ]
