(* thinlocks: command-line front end for the reproduction.

   Each subcommand regenerates one of the paper's tables or figures
   (see DESIGN.md's experiment index), runs micro-benchmarks ad hoc, or
   dumps protocol-level diagnostics. *)

open Cmdliner

let max_syncs_arg =
  let doc = "Cap on replayed lock operations per benchmark (traces are scaled)." in
  Arg.(value & opt int 100_000 & info [ "max-syncs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed for trace generation." in
  Arg.(value & opt int 1998 & info [ "seed" ] ~docv:"SEED" ~doc)

let iterations_arg default =
  let doc = "Iterations per micro-benchmark kernel." in
  Arg.(value & opt int default & info [ "iterations"; "n" ] ~docv:"N" ~doc)

let print s =
  print_string s;
  if String.length s = 0 || s.[String.length s - 1] <> '\n' then print_newline ()

(* A --scheme value is a registry entry; unknown names fail at parse
   time with the list of known ones. *)
let scheme_arg ~doc =
  let parse name =
    match Tl_baselines.Registry.find name with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown scheme %S (known: %s)" name
               (String.concat ", " (Tl_baselines.Registry.names ()))))
  in
  let print ppf (e : Tl_baselines.Registry.entry) = Format.pp_print_string ppf e.name in
  Arg.(
    value
    & opt (conv (parse, print)) (Tl_baselines.Registry.find_entry_exn "thin")
    & info [ "scheme"; "s" ] ~docv:"SCHEME" ~doc)

(* The storm and the lab reject what a scheme cannot do (a reaper for
   monitors that never deflate, a lab over a scheme with no lifecycle)
   with Invalid_argument; report it as a usage error. *)
let or_usage_error f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

let table1_cmd =
  let run max_syncs seed = print (Tl_workload.Report.table1 ~max_syncs ~seed ()) in
  Cmd.v
    (Cmd.info "table1" ~doc:"Macro-benchmark characterization (paper Table 1)")
    Term.(const run $ max_syncs_arg $ seed_arg)

let fig3_cmd =
  let run max_syncs seed = print (Tl_workload.Report.fig3 ~max_syncs ~seed ()) in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Lock nesting-depth distribution (paper Figure 3)")
    Term.(const run $ max_syncs_arg $ seed_arg)

let schemes_arg =
  let doc = "Schemes to compare (comma-separated registry names)." in
  Arg.(
    value
    & opt (list string) Tl_baselines.Registry.paper_trio
    & info [ "schemes" ] ~docv:"NAMES" ~doc)

let fig4_cmd =
  let run iterations schemes =
    print (Tl_workload.Report.fig4 ~iterations ~schemes ())
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Micro-benchmark comparison (paper Figure 4)")
    Term.(const run $ iterations_arg 100_000 $ schemes_arg)

let benchmarks_arg =
  let doc = "Benchmarks to replay (default: all 18)." in
  Arg.(value & opt (some (list string)) None & info [ "benchmarks" ] ~docv:"NAMES" ~doc)

let fig5_cmd =
  let run max_syncs seed benchmarks =
    print (Tl_workload.Report.fig5 ~max_syncs ~seed ?benchmarks ())
  in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Macro-benchmark speedups (paper Figure 5)")
    Term.(const run $ max_syncs_arg $ seed_arg $ benchmarks_arg)

let fig6_cmd =
  let run iterations = print (Tl_workload.Report.fig6 ~iterations ()) in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Implementation-variant tradeoffs (paper Figure 6)")
    Term.(const run $ iterations_arg 100_000)

let characterize_cmd =
  let run max_syncs seed = print (Tl_workload.Report.characterize ~max_syncs ~seed ()) in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Scenario-frequency census (paper par.2) and per-path operation counts")
    Term.(const run $ max_syncs_arg $ seed_arg)

let ablation_cmd =
  let run max_syncs seed =
    print (Tl_workload.Report.count_width_ablation ~max_syncs ~seed ())
  in
  Cmd.v
    (Cmd.info "count-width" ~doc:"Count-width ablation (paper par.3.2 conjecture)")
    Term.(const run $ max_syncs_arg $ seed_arg)

let micro_cmd =
  let kernel_arg =
    let doc = "Kernel: nosync, sync, nestedsync, mixedsync, multisync:N, call, \
               callsync, nestedcallsync, threads:N." in
    Arg.(value & opt string "sync" & info [ "kernel"; "k" ] ~docv:"KERNEL" ~doc)
  in
  let scheme_arg = scheme_arg ~doc:"Locking scheme (registry name)." in
  let list_arg =
    let doc = "List available kernels and schemes, then exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let run iterations kernel_name (entry : Tl_baselines.Registry.entry) list =
    if list then begin
      print_endline "kernels:";
      List.iter
        (fun k -> Printf.printf "  %s\n" (Tl_workload.Micro.kernel_name k))
        Tl_workload.Micro.all_kernels;
      print_endline "schemes:";
      List.iter
        (fun n ->
          Printf.printf "  %-14s %s\n" n
            (Option.value ~default:"" (Tl_baselines.Registry.describe n)))
        (Tl_baselines.Registry.names ())
    end
    else
      match Tl_workload.Micro.parse_kernel kernel_name with
      | None -> Printf.eprintf "unknown kernel %S (try --list)\n" kernel_name
      | Some kernel ->
          let runtime = Tl_runtime.Runtime.create () in
          let scheme = entry.make runtime in
          let m = Tl_workload.Micro.run ~iterations ~scheme ~runtime kernel in
          Printf.printf "%s on %s: %s total, %.1f ns/iteration (%d iterations)\n"
            (Tl_workload.Micro.kernel_name kernel)
            entry.name
            (Tl_util.Timer.seconds_to_string m.Tl_workload.Micro.seconds)
            m.Tl_workload.Micro.ns_per_iteration iterations
  in
  Cmd.v
    (Cmd.info "micro" ~doc:"Run one micro-benchmark kernel under one scheme")
    Term.(const run $ iterations_arg 200_000 $ kernel_arg $ scheme_arg $ list_arg)

let trace_cmd =
  let benchmark_arg =
    let doc = "Benchmark profile to generate a trace for." in
    Arg.(value & opt string "javalex" & info [ "benchmark"; "b" ] ~docv:"NAME" ~doc)
  in
  let output_arg =
    let doc = "Output file (stdout if omitted)." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let run benchmark output max_syncs seed =
    match Tl_workload.Profiles.find benchmark with
    | None -> Printf.eprintf "unknown benchmark %S\n" benchmark
    | Some profile ->
        let trace = Tl_workload.Tracegen.generate ~seed ~max_syncs profile in
        (match output with
        | Some path ->
            Tl_workload.Trace_io.save path trace;
            Printf.printf "wrote %d ops over %d objects to %s\n"
              (Array.length trace.Tl_workload.Tracegen.ops)
              trace.Tl_workload.Tracegen.pool_size path
        | None -> print_string (Tl_workload.Trace_io.to_string trace))
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Generate a lock trace and serialize it")
    Term.(const run $ benchmark_arg $ output_arg $ max_syncs_arg $ seed_arg)

(* Check a traced re-replay with the scheme's own oracle call; exit 1 on
   a violation or a leaked table entry, 2 if the scheme emits no events. *)
let verify_replay (r : Tl_workload.Policy_lab.replayed) =
  let scheme = r.Tl_workload.Policy_lab.scheme in
  match scheme.Tl_core.Scheme_intf.verify with
  | None ->
      Printf.eprintf "scheme %s emits no lock events: there is no stream to verify\n"
        scheme.name;
      exit 2
  | Some verify ->
      (match scheme.lifecycle with
      | Evaporates live when live () <> 0 ->
          Printf.eprintf "%s: %d table entries leaked after the replay drained\n" scheme.name
            (live ());
          exit 1
      | Evaporates _ | Deflates _ | Static -> ());
      let report = verify r.drained in
      Format.printf "%a@." Tl_events.Oracle.pp report;
      if not (Tl_events.Oracle.ok report) then exit 1

let replay_cmd =
  let file_arg =
    let doc = "Trace file produced by 'thinlocks trace'." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let scheme_arg = scheme_arg ~doc:"Locking scheme." in
  let oracle_arg =
    let doc = "After the timed replay, re-replay the trace under the same scheme \
               with event tracing on (1-bit nest count) and verify the stream \
               with the scheme's protocol oracle; exit 1 on violation.  A \
               scheme that emits no events has no oracle: exit 2." in
    Arg.(value & flag & info [ "oracle" ] ~doc)
  in
  let run file (entry : Tl_baselines.Registry.entry) oracle =
    let trace = Tl_workload.Trace_io.load file in
    let runtime = Tl_runtime.Runtime.create () in
    let scheme = entry.make runtime in
    let env = Tl_runtime.Runtime.main_env runtime in
    let result = Tl_workload.Replay.run ~scheme ~env trace in
    Printf.printf "%d acquires in %s under %s (%.1f ns/op)\n"
      result.Tl_workload.Replay.acquires
      (Tl_util.Timer.seconds_to_string result.Tl_workload.Replay.elapsed)
      entry.name
      (result.Tl_workload.Replay.elapsed *. 1e9
      /. float_of_int (max 1 (2 * result.Tl_workload.Replay.acquires)));
    Format.printf "%a@." Tl_core.Lock_stats.pp result.Tl_workload.Replay.stats;
    if oracle then
      verify_replay (Tl_workload.Policy_lab.replay_traced entry trace)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a serialized trace under a scheme")
    Term.(const run $ file_arg $ scheme_arg $ oracle_arg)

let stress_cmd =
  let scheme_arg = scheme_arg ~doc:"Scheme to stress." in
  let seconds_arg =
    let doc = "How long to run." in
    Arg.(value & opt float 5.0 & info [ "seconds" ] ~docv:"S" ~doc)
  in
  let threads_arg =
    let doc = "Worker threads." in
    Arg.(value & opt int 6 & info [ "threads"; "t" ] ~docv:"N" ~doc)
  in
  let run (entry : Tl_baselines.Registry.entry) seconds threads =
    let runtime = Tl_runtime.Runtime.create () in
    let scheme =
      Tl_core.Validate.with_validation (Tl_core.Validate.with_chaos (entry.make runtime))
    in
    let heap = Tl_heap.Heap.create () in
    let objs = Tl_heap.Heap.alloc_many heap 32 in
    let deadline = Unix.gettimeofday () +. seconds in
    let ops = Atomic.make 0 in
    Printf.printf "stressing %s with %d threads for %.1fs (chaos + validation)...\n%!"
      entry.name threads seconds;
    (try
       Tl_runtime.Runtime.run_parallel runtime threads (fun t env ->
           let prng = Tl_util.Prng.create (t lxor 0x5735) in
           while Unix.gettimeofday () < deadline do
             let obj = objs.(Tl_util.Prng.int prng 32) in
             (match Tl_util.Prng.int prng 8 with
             | 0 ->
                 scheme.Tl_core.Scheme_intf.acquire env obj;
                 scheme.Tl_core.Scheme_intf.acquire env obj;
                 scheme.Tl_core.Scheme_intf.release env obj;
                 scheme.Tl_core.Scheme_intf.release env obj
             | 1 ->
                 scheme.Tl_core.Scheme_intf.acquire env obj;
                 scheme.Tl_core.Scheme_intf.wait ?timeout:(Some 0.001) env obj;
                 scheme.Tl_core.Scheme_intf.release env obj
             | 2 ->
                 scheme.Tl_core.Scheme_intf.acquire env obj;
                 scheme.Tl_core.Scheme_intf.notify_all env obj;
                 scheme.Tl_core.Scheme_intf.release env obj
             | _ ->
                 scheme.Tl_core.Scheme_intf.acquire env obj;
                 scheme.Tl_core.Scheme_intf.release env obj);
             ignore (Atomic.fetch_and_add ops 1)
           done);
       Printf.printf "OK: %d operations, no semantic violation detected.\n" (Atomic.get ops)
     with Tl_core.Validate.Violation msg ->
       Printf.printf "VIOLATION after %d operations: %s\n" (Atomic.get ops) msg;
       exit 1);
    Format.printf "%a@." Tl_core.Lock_stats.pp (scheme.Tl_core.Scheme_intf.stats ())
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:"Chaos-stress a scheme under an independent semantics validator")
    Term.(const run $ scheme_arg $ seconds_arg $ threads_arg)

let sim_cmd =
  let run () =
    print_endline "Exhaustive interleaving check (2 threads x 1 iteration, spin budget 2):";
    let programs =
      Array.init 2 (fun i ->
          Tl_sim.Thinmodel.worker ~tid:(i + 1) ~iterations:1 ~spin_budget:2 ())
    in
    let outcome =
      Tl_sim.Machine.explore ~max_depth:400 ~mem_size:Tl_sim.Thinmodel.Addr.mem_size
        ~invariant:(Tl_sim.Thinmodel.mutual_exclusion_invariant ~threads:2)
        ~final:(Tl_sim.Thinmodel.completion_check ~threads:2 ~iterations:1)
        programs
    in
    Printf.printf "  paths=%d completed=%d truncated=%d violation=%s\n"
      outcome.Tl_sim.Machine.explored_paths outcome.Tl_sim.Machine.completed_paths
      outcome.Tl_sim.Machine.truncated_paths
      (match outcome.Tl_sim.Machine.violation with
      | None -> "none"
      | Some v -> v.Tl_sim.Machine.message);
    print_endline "\nPer-path operation counts:";
    let show name counts =
      Printf.printf "  %-28s %s\n" name
        (Format.asprintf "%a" Tl_sim.Machine.pp_op_counts counts)
    in
    show "acquire (unlocked)" (Tl_sim.Thinmodel.acquire_solo_counts ());
    show "release (count 0)" (Tl_sim.Thinmodel.release_solo_counts ());
    show "acquire (nested)" (Tl_sim.Thinmodel.nested_acquire_solo_counts ());
    show "release (nested)" (Tl_sim.Thinmodel.nested_release_solo_counts ());
    show "lock+unlock via fat monitor" (Tl_sim.Thinmodel.fat_solo_counts ())
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Model-check the protocol and count per-path operations")
    Term.(const run $ const ())

let events_cmd =
  let benchmark_arg =
    let doc = "Benchmark profile to trace." in
    Arg.(value & opt string "javalex" & info [ "benchmark"; "b" ] ~docv:"NAME" ~doc)
  in
  let policy_arg =
    let doc = "Deflation policy driving the quiescence-hooked reaper during the replay \
               (never, always-idle, idle-for-4, zero-contended-episodes)." in
    Arg.(value & opt string "never" & info [ "policy"; "p" ] ~docv:"POLICY" ~doc)
  in
  let output_arg =
    let doc = "Write the event stream to this file (stdout if omitted)." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let summary_arg =
    let doc = "Print a per-kind census instead of the full stream." in
    Arg.(value & flag & info [ "summary" ] ~doc)
  in
  let binary_arg =
    let doc = "Encode the dump with the compact binary codec instead of text \
               (trace-diff/verify-trace/residency auto-detect either)." in
    Arg.(value & flag & info [ "binary" ] ~doc)
  in
  let sample_arg =
    let doc = "Record a stable hash-selected 1-in-N of objects (whole per-object \
               histories survive, so the stream stays oracle-checkable); \
               non-object events are always kept." in
    Arg.(value & opt int 1 & info [ "sample" ] ~docv:"N" ~doc)
  in
  let contended_arg =
    let doc = "Record only contended episodes: suppress the uncontended thin-path \
               acquire/release events, keep inflations, deflations, wait/notify \
               and system events." in
    Arg.(value & flag & info [ "contended-only" ] ~doc)
  in
  let run benchmark policy_name output summary binary sample contended max_syncs seed =
    match Tl_lifecycle.Policy.of_string policy_name with
    | None -> Printf.eprintf "unknown policy %S\n" policy_name
    | Some policy -> (
        match Tl_workload.Profiles.find benchmark with
        | None -> Printf.eprintf "unknown benchmark %S\n" benchmark
        | Some profile ->
            let sampling =
              match (sample, contended) with
              | n, _ when n < 1 ->
                  Printf.eprintf "--sample must be >= 1\n";
                  exit 2
              | n, true when n > 1 ->
                  Printf.eprintf "--sample and --contended-only are exclusive\n";
                  exit 2
              | _, true -> Some Tl_events.Sink.Contended_only
              | 1, false -> None
              | n, false -> Some (Tl_events.Sink.One_in_n n)
            in
            let trace = Tl_workload.Tracegen.generate ~seed ~max_syncs profile in
            let drained =
              (Tl_workload.Policy_lab.replay_traced ?sampling
                 ~reap:(Tl_workload.Policy_lab.Reap_fixed policy)
                 (Tl_baselines.Registry.find_entry_exn "thin")
                 trace)
                .drained
            in
            if summary then begin
              Printf.printf "%d events (%d dropped) from %s under %s:\n"
                (Array.length drained.Tl_events.Sink.events)
                (List.fold_left (fun a (_, n) -> a + n) 0 drained.Tl_events.Sink.dropped)
                benchmark policy_name;
              List.iter
                (fun kind ->
                  let n = Tl_events.Sink.count_kind drained kind in
                  if n > 0 then
                    Printf.printf "  %-20s %d\n" (Tl_events.Event.kind_name kind) n)
                Tl_events.Event.all_kinds
            end
            else
              let text =
                if binary then Tl_events.Codec_bin.to_bytes drained
                else Tl_events.Codec.to_string drained
              in
              (match output with
              | Some path ->
                  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
                  Printf.printf "wrote %d events to %s (%d bytes, %s)\n"
                    (Array.length drained.Tl_events.Sink.events)
                    path (String.length text)
                    (if binary then "binary" else "text")
              | None -> print_string text))
  in
  Cmd.v
    (Cmd.info "events"
       ~doc:"Replay a benchmark trace with lock-event tracing on and dump the stream")
    Term.(
      const run $ benchmark_arg $ policy_arg $ output_arg $ summary_arg $ binary_arg
      $ sample_arg $ contended_arg $ max_syncs_arg $ seed_arg)

let backend_arg =
  let doc =
    "Worker substrate for parallel replay: $(b,domains) runs each worker on its \
     own OCaml domain; $(b,fibers) runs the same workers as fibers of the \
     effects scheduler multiplexed over that many carrier domains."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("domains", Tl_workload.Parallel_replay.Os_domains);
             ("fibers", Tl_workload.Parallel_replay.Fibers);
           ])
        Tl_workload.Parallel_replay.Os_domains
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let fat_backend_arg =
  let doc =
    "Contended-path engine for inflated fat monitors: $(b,parker) (entry \
     queue with spin-before-park) or $(b,hapax) (constant-time FIFO \
     ticket admission).  Selects the --scheme's registry sibling with \
     that engine (thin + hapax is thin-hapax); omitted, the scheme runs \
     as named (thin and fat use parker)."
  in
  let engines =
    List.map (fun b -> (Tl_monitor.Fatlock.backend_name b, b)) Tl_monitor.Fatlock.all_backends
  in
  Arg.(value & opt (some (enum engines)) None & info [ "fat-backend" ] ~docv:"ENGINE" ~doc)

(* The entry a --scheme/--fat-backend pair names, by registry data. *)
let with_fat_backend (entry : Tl_baselines.Registry.entry) = function
  | None -> entry
  | Some b -> (
      match Tl_baselines.Registry.with_fat_backend entry b with
      | Some e -> e
      | None ->
          Printf.eprintf "scheme %s has no pluggable fat backend (--fat-backend %s)\n"
            entry.name (Tl_monitor.Fatlock.backend_name b);
          exit 2)

(* Controller knobs, shared by every subcommand that can mount the
   self-tuning reaper (--reap controlled). *)
let controller_config_term =
  let module Ctl = Tl_lifecycle.Controller in
  let d = Ctl.default_config in
  let epoch_scans_arg =
    let doc = "Controller decision-epoch length, in census scans." in
    Arg.(value & opt int d.Ctl.epoch_scans & info [ "ctl-epoch-scans" ] ~docv:"N" ~doc)
  in
  let patience_arg =
    let doc = "Consecutive epochs a challenger policy must stay better before the \
               controller switches a shard (the hysteresis bound)." in
    Arg.(value & opt int d.Ctl.patience & info [ "ctl-patience" ] ~docv:"N" ~doc)
  in
  let margin_arg =
    let doc = "Relative cost margin a challenger must win by (0.25 = 25%)." in
    Arg.(value & opt float d.Ctl.margin & info [ "ctl-margin" ] ~docv:"F" ~doc)
  in
  let thrash_arg =
    let doc = "Cost units charged per re-inflation a deflation provokes." in
    Arg.(value & opt float d.Ctl.thrash_weight & info [ "ctl-thrash-weight" ] ~docv:"F" ~doc)
  in
  let budget_arg =
    let doc = "Exploration token budget per shard (0 disables excursions)." in
    Arg.(value & opt int d.Ctl.explore_budget & info [ "ctl-explore-budget" ] ~docv:"N" ~doc)
  in
  let refill_arg =
    let doc = "Epochs between exploration-token refills (0 = never refill)." in
    Arg.(value & opt int d.Ctl.explore_refill & info [ "ctl-explore-refill" ] ~docv:"N" ~doc)
  in
  let initial_arg =
    let doc = "Policy every shard starts on (never, zero-contended-episodes, \
               idle-for-4, always-idle)." in
    Arg.(
      value
      & opt string (Ctl.policy_name d.Ctl.initial_policy)
      & info [ "ctl-initial" ] ~docv:"POLICY" ~doc)
  in
  let build epoch_scans patience margin thrash_weight explore_budget explore_refill
      initial =
    match Ctl.policy_index initial with
    | None ->
        Printf.eprintf "unknown --ctl-initial policy %S\n" initial;
        exit 2
    | Some initial_policy ->
        {
          d with
          Ctl.epoch_scans;
          patience;
          margin;
          thrash_weight;
          explore_budget;
          explore_refill;
          initial_policy;
        }
  in
  Term.(
    const build $ epoch_scans_arg $ patience_arg $ margin_arg $ thrash_arg
    $ budget_arg $ refill_arg $ initial_arg)

let reap_arg ~doc = Arg.(value & opt string "none" & info [ "reap" ] ~docv:"MODE" ~doc)

(* A --reap value: none, a shipped policy name, or controlled (tuned by
   the --ctl-* knobs). *)
let parse_reap ~ctl = function
  | "none" -> None
  | r -> (
      match Tl_workload.Policy_lab.reap_of_string ~controller:ctl r with
      | Some reap -> Some reap
      | None ->
          Printf.eprintf "unknown --reap mode %S (none, controlled or a policy name)\n" r;
          exit 2)

let policy_lab_cmd =
  let benchmarks_arg =
    let doc = "Traces to replay (comma-separated benchmark names)." in
    Arg.(
      value
      & opt (list string) Tl_workload.Policy_lab.default_benchmarks
      & info [ "benchmarks" ] ~docv:"NAMES" ~doc)
  in
  let lab_max_syncs_arg =
    let doc = "Ops per replayed trace." in
    Arg.(value & opt int 20_000 & info [ "max-syncs" ] ~docv:"N" ~doc)
  in
  let domains_arg =
    let doc = "Replay across N domains through the work-stealing scheduler (1 = the \
               classic single-threaded lab)." in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)
  in
  let affinity_arg =
    let doc = "With --domains > 1: shard lanes by object affinity instead of the \
               default shuffle (contention-manufacturing) decomposition." in
    Arg.(value & flag & info [ "affinity" ] ~doc)
  in
  let lab_scheme_arg =
    scheme_arg
      ~doc:
        "Lock under the lab: any registry entry that emits events.  A scheme \
         whose monitors deflate (thin and its variants) gets one table row per \
         deflation policy; one whose monitors evaporate (cjm) gets a single \
         head-to-head row per trace."
  in
  let lab_reap_arg =
    reap_arg
      ~doc:
        "Extra table row: $(b,controlled) appends the self-tuning feedback \
         controller to each table of a deflating scheme so it ranks against \
         the fixed policies ($(b,none) = fixed policies only)."
  in
  let run max_syncs seed benchmarks domains affinity backend entry fat_backend reap ctl =
    let entry = with_fat_backend entry fat_backend in
    let controlled =
      match reap with
      | "none" -> None
      | "controlled" -> Some ctl
      | r ->
          Printf.eprintf
            "policy-lab --reap takes none or controlled (fixed policies are \
             already rows), got %S\n"
            r;
          exit 2
    in
    or_usage_error (fun () ->
        if domains <= 1 then
          print (Tl_workload.Policy_lab.table ~max_syncs ~seed ~benchmarks ?controlled entry)
        else
          let mode =
            if affinity then Tl_workload.Parallel_replay.Affinity
            else Tl_workload.Parallel_replay.Shuffle
          in
          print
            (Tl_workload.Policy_lab.table_par ~max_syncs ~seed ~benchmarks ~backend ?controlled
               ~domains ~mode entry))
  in
  Cmd.v
    (Cmd.info "policy-lab"
       ~doc:"Score every deflation policy against macro traces via the event stream")
    Term.(
      const run $ lab_max_syncs_arg $ seed_arg $ benchmarks_arg $ domains_arg
      $ affinity_arg $ backend_arg $ lab_scheme_arg $ fat_backend_arg $ lab_reap_arg
      $ controller_config_term)

let replay_par_cmd =
  let module PR = Tl_workload.Parallel_replay in
  let benchmark_arg =
    let doc = "Benchmark profile to generate the replayed trace from." in
    Arg.(value & opt string "javacup" & info [ "benchmark"; "b" ] ~docv:"NAME" ~doc)
  in
  let domains_arg =
    let doc = "Worker domains." in
    Arg.(value & opt int 2 & info [ "domains"; "d" ] ~docv:"N" ~doc)
  in
  let shuffle_arg =
    let doc = "Break per-object affinity: deal episodes round-robin so consecutive \
               episodes of hot objects overlap across domains (manufactures contention)." in
    Arg.(value & flag & info [ "shuffle" ] ~doc)
  in
  let scheme_arg = scheme_arg ~doc:"Locking scheme (registry name)." in
  let work_arg =
    let doc = "Spin-work iterations per replayed op (lengthens critical sections)." in
    Arg.(value & opt int 0 & info [ "work" ] ~docv:"N" ~doc)
  in
  let tick_every_arg =
    let doc = "Ops between per-domain quiescence announcements." in
    Arg.(value & opt int 64 & info [ "tick-every" ] ~docv:"N" ~doc)
  in
  let interleave_arg =
    let doc = "Add a 50us voluntary deschedule to every tick — the stand-in for \
               preemption that makes episodes overlap on hosts with fewer cores \
               than domains." in
    Arg.(value & flag & info [ "interleave" ] ~doc)
  in
  let expect_contention_arg =
    let doc = "Retry the replay (up to 5 attempts) until it produced at least one \
               contended episode or contention inflation; exit 1 otherwise.  CI uses \
               this to assert the parallel path really contends." in
    Arg.(value & flag & info [ "expect-contention" ] ~doc)
  in
  let oracle_arg =
    let doc = "After the timed replay, re-replay the trace under the same scheme \
               with event tracing on (same domains and decomposition, 1-bit nest \
               count) and verify the drained stream with the scheme's protocol \
               oracle; exit 1 on violation \
               or on a table entry left live by a scheme whose monitors \
               evaporate.  A scheme that emits no events has no oracle: exit 2." in
    Arg.(value & flag & info [ "oracle" ] ~doc)
  in
  let par_reap_arg =
    reap_arg
      ~doc:
        "Deflation mode for the traced --oracle re-replay of a scheme whose \
         monitors deflate: $(b,none) (no reaper), a fixed policy name (never, \
         always-idle, idle-for-4, zero-contended-episodes) or $(b,controlled) \
         for the self-tuning per-shard feedback controller — its \
         Policy_switch decisions land in the verified stream."
  in
  let run benchmark domains shuffle entry work tick_every interleave expect oracle backend
      max_syncs seed fat_backend reap ctl =
    let entry = with_fat_backend entry fat_backend in
    let reap = parse_reap ~ctl reap in
    match Tl_workload.Profiles.find benchmark with
    | None ->
        Printf.eprintf "unknown benchmark %S\n" benchmark;
        exit 2
    | Some profile ->
        let trace = Tl_workload.Tracegen.generate ~seed ~max_syncs profile in
        let mode = if shuffle then PR.Shuffle else PR.Affinity in
        let attempt () =
          let runtime = Tl_runtime.Runtime.create () in
          let scheme = entry.make runtime in
          let tick env =
            Tl_runtime.Runtime.quiescence_point ~env runtime;
            if interleave then
              match backend with
              | PR.Os_domains -> Unix.sleepf 5e-5
              | PR.Fibers -> Tl_fiber.Scheduler.sleep 5e-5
          in
          let config =
            {
              PR.default_config with
              PR.domains;
              mode;
              work_per_op = work;
              tick_every;
              backend;
            }
          in
          PR.run ~config ~tick ~scheme ~runtime trace
        in
        let contended (r : PR.result) =
          r.PR.stats.Tl_core.Lock_stats.inflations_contention
          + r.PR.stats.Tl_core.Lock_stats.contended_episodes
        in
        (* A scheme that records no statistics (thin-nostats) leaves an
           empty snapshot behind a replay that acquired: its ratio and
           contention counts would read as a contention-free run. *)
        let stats_off (r : PR.result) =
          r.PR.acquires > 0 && Tl_core.Lock_stats.total_acquires r.PR.stats = 0
        in
        let rec go attempts r =
          if expect && stats_off r then begin
            Printf.eprintf
              "--expect-contention needs statistics, and scheme %s records none\n" entry.name;
            exit 2
          end;
          if (not expect) || contended r > 0 || attempts <= 0 then r
          else begin
            Printf.printf "  (no contention this attempt, retrying: %d left)\n%!" attempts;
            go (attempts - 1) (attempt ())
          end
        in
        let r = go 4 (attempt ()) in
        Printf.printf "replayed %s under %s: %d ops (%d acquires), %d lanes / %d runs\n"
          benchmark entry.name r.PR.ops r.PR.acquires r.PR.lanes r.PR.runs;
        Printf.printf "%d %s, %s mode: %.0f ops/sec in %s; %d steals\n\n" domains
          (match backend with
          | PR.Os_domains -> "domains"
          | PR.Fibers -> "fiber-carrier domains")
          (PR.mode_name mode) r.PR.ops_per_sec
          (Tl_util.Timer.seconds_to_string r.PR.elapsed)
          r.PR.steals;
        Printf.printf "  %-7s %8s %9s %6s %6s %7s %9s\n" "domain" "ops" "acquires" "runs"
          "lanes" "steals" "busy";
        Array.iter
          (fun (t : PR.domain_tally) ->
            Printf.printf "  %-7d %8d %9d %6d %6d %7d %8.1fms\n" t.PR.domain t.PR.ops_executed
              t.PR.acquires_executed t.PR.runs_executed t.PR.lanes_started t.PR.steals
              (1e3 *. t.PR.busy))
          r.PR.tallies;
        let s = r.PR.stats in
        if stats_off r then Printf.printf "\n  statistics: off\n"
        else
          Printf.printf
            "\n\
            \  fast ratio: %.1f%%   contention inflations: %d   contended episodes: %d\n\
            \  wait inflations: %d   overflow inflations: %d   deflations: %d\n"
            (100.0 *. PR.fast_ratio s)
            s.Tl_core.Lock_stats.inflations_contention s.Tl_core.Lock_stats.contended_episodes
            s.Tl_core.Lock_stats.inflations_wait s.Tl_core.Lock_stats.inflations_overflow
            s.Tl_core.Lock_stats.deflations;
        if expect && contended r = 0 then begin
          Printf.eprintf "expected contention but every attempt replayed contention-free\n";
          exit 1
        end;
        if oracle then begin
          let _r, replayed =
            or_usage_error (fun () ->
                Tl_workload.Policy_lab.replay_traced_par ~interleave ~backend ?reap ~domains
                  ~mode entry trace)
          in
          Option.iter
            (fun c ->
              Printf.printf
                "controller: %d policy switch(es) across %d shard(s) in the verified stream\n"
                (Tl_lifecycle.Controller.switches_total c)
                (Tl_lifecycle.Controller.nshards c))
            replayed.controller;
          verify_replay replayed
        end
  in
  Cmd.v
    (Cmd.info "replay-par"
       ~doc:"Replay a macro trace across N domains through the work-stealing scheduler")
    Term.(
      const run $ benchmark_arg $ domains_arg $ shuffle_arg $ scheme_arg $ work_arg
      $ tick_every_arg $ interleave_arg $ expect_contention_arg $ oracle_arg
      $ backend_arg $ max_syncs_arg $ seed_arg $ fat_backend_arg $ par_reap_arg
      $ controller_config_term)

let fiber_storm_cmd =
  let module FS = Tl_workload.Fiber_storm in
  let fibers_arg =
    let doc = "Total fibers admitted over the run." in
    Arg.(value & opt int 100_000 & info [ "fibers" ] ~docv:"N" ~doc)
  in
  let domains_arg =
    let doc = "Carrier domains the scheduler multiplexes fibers over." in
    Arg.(value & opt int 1 & info [ "domains"; "d" ] ~docv:"N" ~doc)
  in
  let objects_arg =
    let doc = "Shared lock objects." in
    Arg.(value & opt int 1024 & info [ "objects" ] ~docv:"N" ~doc)
  in
  let zipf_arg =
    let doc = "Zipf popularity exponent over the objects (0 = uniform)." in
    Arg.(value & opt float 0.99 & info [ "zipf" ] ~docv:"THETA" ~doc)
  in
  let ops_arg =
    let doc = "Lock episodes per fiber." in
    Arg.(value & opt int 1 & info [ "ops" ] ~docv:"N" ~doc)
  in
  let in_flight_arg =
    let doc = "Admission window: maximum concurrently-live worker fibers (also \
               bounds the distinct tid indices a run leases)." in
    Arg.(value & opt int 4096 & info [ "in-flight" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Poisson admission rate (fibers/sec); 0 = window-limited open loop." in
    Arg.(value & opt float 0.0 & info [ "arrival-rate" ] ~docv:"R" ~doc)
  in
  let no_yield_arg =
    let doc = "Do not suspend inside the critical section (less parking, more \
               fast-path)." in
    Arg.(value & flag & info [ "no-yield-in-cs" ] ~doc)
  in
  let no_trace_arg =
    let doc = "Run untraced (no event sink, no oracle): pure throughput numbers." in
    Arg.(value & flag & info [ "no-trace" ] ~doc)
  in
  let no_oracle_arg =
    let doc = "Trace but skip the oracle's verification of the drained stream." in
    Arg.(value & flag & info [ "no-oracle" ] ~doc)
  in
  let storm_scheme_arg =
    scheme_arg
      ~doc:
        "Locking scheme under the storm: any registry entry (thin = header lock \
         word, cjm = headerless transient monitor table, jdk111, ibm112, fat, \
         mcs, ...).  Traced runs verify with the scheme's own oracle; schemes \
         that emit no events trace only the system stream."
  in
  let storm_reap_arg =
    reap_arg
      ~doc:
        "Deflation under the storm: $(b,none) (monitors stay fat), a fixed \
         policy name (never, always-idle, idle-for-4, zero-contended-episodes) \
         or $(b,controlled) — the self-tuning per-shard feedback controller.  \
         Only for a scheme whose monitors deflate; scans ride the quiescence \
         announcements."
  in
  let run fibers domains objects zipf ops in_flight rate no_yield no_trace no_oracle
      entry fat_backend reap ctl seed =
    let config =
      {
        FS.default_config with
        FS.fibers;
        domains;
        objects;
        zipf;
        ops_per_fiber = ops;
        in_flight;
        arrival_rate = rate;
        yield_in_cs = not no_yield;
        scheme = with_fat_backend entry fat_backend;
        reap = parse_reap ~ctl reap;
        seed;
      }
    in
    let r =
      or_usage_error (fun () ->
          FS.run ~trace:(not no_trace) ~oracle:(not (no_trace || no_oracle)) config)
    in
    Format.printf "%a@." FS.pp r;
    if r.FS.completed <> fibers then begin
      Printf.eprintf "storm lost fibers: %d of %d completed\n" r.FS.completed fibers;
      exit 1
    end;
    if r.FS.leaked_entries > 0 then begin
      Printf.eprintf "%s table leak: %d entries live after drain\n" config.scheme.name
        r.FS.leaked_entries;
      exit 1
    end;
    match r.FS.oracle with
    | Some rep when not (Tl_events.Oracle.ok rep) -> exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "fiber-storm"
       ~doc:"Storm N lightweight fibers over any registry scheme's locks on a \
             fixed domain pool, reporting throughput and the acquire-latency tail")
    Term.(
      const run $ fibers_arg $ domains_arg $ objects_arg $ zipf_arg $ ops_arg
      $ in_flight_arg $ rate_arg $ no_yield_arg $ no_trace_arg $ no_oracle_arg
      $ storm_scheme_arg $ fat_backend_arg $ storm_reap_arg
      $ controller_config_term $ seed_arg)

(* Auto-detect on the format tag: text and binary dumps both start
   with a distinctive magic line. *)
let load_event_stream path =
  try Tl_events.Codec_bin.of_string_auto (In_channel.with_open_bin path In_channel.input_all)
  with Tl_events.Codec.Parse_error msg ->
    Printf.eprintf "%s: not a thinlocks event stream: %s\n" path msg;
    exit 2

let trace_diff_cmd =
  let file_arg pos_idx docv =
    let doc = "Event-stream file (as written by 'thinlocks events -o')." in
    Arg.(required & pos pos_idx (some file) None & info [] ~docv ~doc)
  in
  let run a b =
    let report = Tl_events.Diff.compare (load_event_stream a) (load_event_stream b) in
    Format.printf "%a@." Tl_events.Diff.pp report;
    if not (Tl_events.Diff.identical report) then exit 1
  in
  Cmd.v
    (Cmd.info "trace-diff"
       ~doc:"Compare two serialized event streams; exit 1 on the first divergence")
    Term.(const run $ file_arg 0 "LEFT" $ file_arg 1 "RIGHT")

let verify_trace_cmd =
  let file_arg =
    let doc = "Event-stream file (as written by 'thinlocks events -o')." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let count_width_arg =
    let doc = "Nest-count field width (1-8) of the replay that produced the stream; \
               arms the thin-depth ceiling check.  Omitted, the ceiling check is off." in
    Arg.(value & opt (some int) None & info [ "count-width" ] ~docv:"BITS" ~doc)
  in
  let allow_held_arg =
    let doc = "Do not flag objects still held at end of stream (for mid-run ring \
               drains, which may cut an episode in half)." in
    Arg.(value & flag & info [ "allow-held-end" ] ~doc)
  in
  let run file count_width allow_held =
    let drained = load_event_stream file in
    let report =
      Tl_events.Oracle.check ?count_width ~require_unlocked_end:(not allow_held) drained
    in
    Format.printf "%a@." Tl_events.Oracle.pp report;
    if not (Tl_events.Oracle.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "verify-trace"
       ~doc:"Replay an event stream through the protocol oracle; exit 1 on violation")
    Term.(const run $ file_arg $ count_width_arg $ allow_held_arg)

let residency_cmd =
  let file_arg =
    let doc = "Event-stream file (as written by 'thinlocks events -o')." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let drained = load_event_stream file in
    Format.printf "%a@." Tl_events.Residency.pp (Tl_events.Residency.of_drained drained)
  in
  Cmd.v
    (Cmd.info "residency"
       ~doc:"Fold an event stream through the online residency monitor and summarize")
    Term.(const run $ file_arg)

let all_cmd =
  let run max_syncs seed iterations =
    print (Tl_workload.Report.table1 ~max_syncs ~seed ());
    print_newline ();
    print (Tl_workload.Report.fig3 ~max_syncs ~seed ());
    print_newline ();
    print (Tl_workload.Report.fig4 ~iterations ());
    print_newline ();
    print (Tl_workload.Report.fig5 ~max_syncs:(max_syncs / 2) ~seed ());
    print_newline ();
    print (Tl_workload.Report.fig6 ~iterations ());
    print_newline ();
    print (Tl_workload.Report.characterize ~max_syncs ~seed ());
    print_newline ();
    print (Tl_workload.Report.count_width_ablation ~max_syncs ~seed ());
    print_newline ();
    print (Tl_workload.Report.monitor_lifecycle ())
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table and figure")
    Term.(const run $ max_syncs_arg $ seed_arg $ iterations_arg 100_000)

let () =
  let info =
    Cmd.info "thinlocks" ~version:"1.0.0"
      ~doc:"Thin Locks (Bacon et al., PLDI 1998) reproduction harness"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            table1_cmd; fig3_cmd; fig4_cmd; fig5_cmd; fig6_cmd; characterize_cmd;
            ablation_cmd; micro_cmd; sim_cmd; stress_cmd; trace_cmd; replay_cmd;
            replay_par_cmd; fiber_storm_cmd; events_cmd; policy_lab_cmd; trace_diff_cmd;
            verify_trace_cmd; residency_cmd; all_cmd;
          ]))
