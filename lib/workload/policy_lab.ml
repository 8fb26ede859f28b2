(* The policy lab: replay macro traces under each deflation policy and
   score the lifecycle dynamics from the event stream.

   Plain counter snapshots can say how many deflations happened; only
   the ordered stream can say how long monitors *stayed* fat (the
   residency integral), or whether a deflation was wasted because the
   same object re-inflated moments later (thrash).  The lab replays
   the same deterministic trace once per policy with tracing on, then
   computes those stream metrics plus the fast-path ratio.

   Knobs chosen so lifecycle dynamics actually appear in a
   single-threaded replay: a 1-bit nest count makes every depth-3
   episode overflow-inflate (the traces' depth censuses give each
   benchmark its own inflation pressure), and a quiescence point is
   announced every [quiescence_every] ops, which is what drives the
   quiescence-hooked reaper. *)

module Runtime = Tl_runtime.Runtime
module Scheme_intf = Tl_core.Scheme_intf
module Registry = Tl_baselines.Registry
module Policy = Tl_lifecycle.Policy
module Reaper = Tl_lifecycle.Reaper
module Controller = Tl_lifecycle.Controller
module Sink = Tl_events.Sink
module Event = Tl_events.Event
module Residency = Tl_events.Residency
module T = Tl_util.Tablefmt

(* How the reaper is driven: a fixed policy, or the self-tuning
   feedback controller re-selecting per-shard policies at runtime. *)
type reap = Reap_fixed of Policy.t | Reap_controlled of Controller.config

let reap_name = function
  | Reap_fixed p -> p.Policy.name
  | Reap_controlled _ -> "controlled"

let reap_of_string name =
  if String.equal name "controlled" then Some (Reap_controlled Controller.default_config)
  else Option.map (fun p -> Reap_fixed p) (Policy.of_string name)

let attach_reaper ?reap runtime (scheme : Scheme_intf.packed) =
  match (reap, scheme.lifecycle) with
  | None, _ -> None
  | Some (Reap_fixed policy), Deflates ctx ->
      Reaper.on_quiescence ~policy runtime ctx;
      None
  | Some (Reap_controlled config), Deflates ctx ->
      let controller =
        Controller.create ~config
          ~nshards:(Tl_monitor.Montable.shard_count (Tl_core.Thin.montable ctx))
          ()
      in
      Reaper.on_quiescence ~controller runtime ctx;
      Some controller
  | Some _, (Evaporates _ | Static) ->
      invalid_arg
        (Printf.sprintf "scheme %s does not deflate: there is nothing for a reaper to drive"
           scheme.name)

type replayed = {
  scheme : Scheme_intf.packed;
  controller : Controller.t option;
  drained : Sink.drained;
}

(* A fresh runtime and scheme tracing into a sink with room for one
   acquire + one release event per op, plus inflations, deflations,
   scans and quiescence marks: no drops, so the scores see the whole
   run.  [finish] replays the trace; a reaped replay then settles with
   extra announcements so hysteresis policies (idle-for-N) get the
   chance to drain monitors still fat at trace end. *)
let traced_run ~count_width ~sampling ~reap (entry : Registry.entry) (trace : Tracegen.t) finish =
  let sink =
    Sink.create ~ring_capacity:((4 * Array.length trace.Tracegen.ops) + 4096) ?sampling ()
  in
  let runtime = Runtime.create () in
  Runtime.set_event_sink runtime sink;
  let scheme = entry.make ~events:sink ~count_width runtime in
  let controller = attach_reaper ?reap runtime scheme in
  let result = finish runtime scheme in
  if Option.is_some reap then begin
    let env = Runtime.main_env runtime in
    for _ = 1 to 16 do
      Runtime.quiescence_point ~env runtime
    done
  end;
  (result, { scheme; controller; drained = Sink.drain sink })

let replay_traced ?(count_width = 1) ?(quiescence_every = 64) ?sampling ?reap entry
    (trace : Tracegen.t) =
  snd
    (traced_run ~count_width ~sampling ~reap entry trace (fun runtime scheme ->
         let env = Runtime.main_env runtime in
         let pool = Tl_heap.Heap.alloc_many (Tl_heap.Heap.create ()) trace.Tracegen.pool_size in
         Array.iteri
           (fun i op ->
             if op > 0 then scheme.Scheme_intf.acquire env pool.(op - 1)
             else scheme.release env pool.(-op - 1);
             if (i + 1) mod quiescence_every = 0 then Runtime.quiescence_point ~env runtime)
           trace.Tracegen.ops))

(* Multi-domain lab: the same trace, policy set and stream scoring, but
   replayed through the parallel scheduler so contention is real —
   which is the only setting where [zero_contended_episodes] can
   diverge from [always_idle].  The quiescence announcements that drive
   the reaper ride the scheduler's per-domain tick. *)

let replay_traced_par ?(count_width = 1) ?(quiescence_every = 64) ?(interleave = false)
    ?(backend = Parallel_replay.Os_domains) ?reap ~domains ~mode entry
    (trace : Tracegen.t) =
  traced_run ~count_width ~sampling:None ~reap entry trace (fun runtime scheme ->
      let tick env =
        Runtime.quiescence_point ~env runtime;
        (* Voluntary deschedule: on hosts with fewer cores than domains the
           OS would otherwise run each domain's episodes back-to-back and
           no two lock episodes would ever overlap.  A tiny sleep mid-trace
           hands the core over exactly as involuntary preemption would on a
           loaded machine, so contended inflation is exercised even on the
           one-core CI box.  Under the fiber backend the deschedule is a
           fiber sleep — the carrier stays busy running other workers. *)
        if interleave then
          match backend with
          | Parallel_replay.Os_domains -> Unix.sleepf 5e-5
          | Parallel_replay.Fibers -> Tl_fiber.Scheduler.sleep 5e-5
      in
      let pconfig =
        {
          Parallel_replay.default_config with
          Parallel_replay.domains;
          mode;
          tick_every = quiescence_every;
          backend;
        }
      in
      Parallel_replay.run ~config:pconfig ~tick ~scheme ~runtime trace)

type score = {
  policy : string;
  acquires : int;
  fast_ratio : float;
  inflations : int;
  deflations : int;
  aborted : int;
  reinflations : int;
  contended : int;
  thrash : float;
  fat_residency : float;
  dropped : int;
}

(* Lab score: slow-path percentage plus thrash, lower better.  Both
   terms are "wasted work per acquire" shaped: acquires that missed
   the thin fast path, and deflations that had to be undone. *)
let lab_score s = (100.0 *. (1.0 -. s.fast_ratio)) +. s.thrash

(* The lab's own pass counts acquires and their thin fast-path share;
   everything about monitors comes from the residency summary. *)
let score_stream ~label (d : Sink.drained) =
  let acquires = ref 0 and fast = ref 0 in
  Sink.iter
    (fun ~seq:_ ~tid:_ ~kind ~arg:_ ~ord:_ ->
      match kind with
      | Event.Acquire_fast | Event.Acquire_nested ->
          incr acquires;
          incr fast
      | Event.Acquire_fat | Event.Acquire_fat_queued -> incr acquires
      | Event.Inflate_contention | Event.Inflate_wait | Event.Inflate_overflow
      | Event.Cjm_monitor_create | Event.Deflate_quiescent | Event.Deflate_concurrent
      | Event.Cjm_monitor_evaporate | Event.Deflate_aborted | Event.Contended_begin
      | Event.Release_fast | Event.Release_nested | Event.Release_fat
      | Event.Contended_end | Event.Wait_op | Event.Notify_op
      | Event.Notify_all_op | Event.Reaper_scan | Event.Quiescence
      | Event.Tid_overflow | Event.Policy_switch ->
          ())
    d;
  let r = Residency.of_drained d in
  {
    policy = label;
    acquires = !acquires;
    fast_ratio = (if !acquires = 0 then 1.0 else float_of_int !fast /. float_of_int !acquires);
    inflations = r.Residency.inflations;
    deflations = r.deflations;
    aborted = r.aborted;
    reinflations = r.reinflations;
    contended = r.contended_episodes;
    thrash =
      (if !acquires = 0 then 0.0
       else 1000.0 *. float_of_int r.reinflations /. float_of_int !acquires);
    fat_residency = r.fat_residency;
    dropped = List.fold_left (fun acc (_, n) -> acc + n) 0 d.Sink.dropped;
  }

(* A row is named after what drove its deflations: the reap mode, or
   the scheme's own lifecycle when no reaper ran. *)
let score ?reap r =
  let label =
    match (reap, r.scheme.lifecycle) with
    | Some reap, _ -> reap_name reap
    | None, Evaporates _ -> r.scheme.name ^ " (evaporate)"
    | None, (Deflates _ | Static) -> r.scheme.name
  in
  score_stream ~label r.drained

let run_one ?count_width ?quiescence_every ?reap entry trace =
  score ?reap (replay_traced ?count_width ?quiescence_every ?reap entry trace)

(* Chosen for spread of inflation pressure: javalex is light (3 % of
   ops at depth >= 3), mocha moderate, javacup heavy (15 %). *)
let default_benchmarks = [ "javalex"; "javacup"; "mocha" ]

(* The rows a scheme's lifecycle gives the lab: one per shipped policy
   (plus the controller) when a reaper decides deflation, a single
   unranked head-to-head row when monitors evaporate on their own.  The
   lifecycle is read off a throwaway instance of the scheme. *)
let lab_rows ~controlled (entry : Registry.entry) =
  match (entry.make (Runtime.create ())).lifecycle with
  | Deflates _ ->
      ( `Policies,
        List.map (fun p -> Some (Reap_fixed p)) Policy.shipped
        @ Option.to_list (Option.map (fun c -> Some (Reap_controlled c)) controlled) )
  | Evaporates _ ->
      if Option.is_some controlled then
        invalid_arg
          (Printf.sprintf "Policy_lab: scheme %s evaporates its monitors; nothing to control"
             entry.name);
      (`Evaporates, [ None ])
  | Static ->
      invalid_arg
        (Printf.sprintf "Policy_lab: scheme %s has no monitor lifecycle to score" entry.name)

(* One table per benchmark trace, a row per reap mode (with a
   contended-episode column for the parallel lab), framed by the
   lifecycle's [intro] and [outro] text. *)
let lab_table ~who ~max_syncs ~seed ~benchmarks ~controlled ~contended ~intro ~outro ~replay
    entry =
  let kind, reaps = lab_rows ~controlled entry in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (intro kind);
  List.iter
    (fun bench ->
      let trace =
        match Profiles.find bench with
        | Some p -> Tracegen.generate ~seed ~max_syncs p
        | None -> invalid_arg (Printf.sprintf "Policy_lab.%s: unknown benchmark %S" who bench)
      in
      let scores = List.map (fun reap -> score ?reap (replay ?reap trace)) reaps in
      let cont s = if contended then [ string_of_int s.contended ] else [] in
      Buffer.add_string buf
        (T.render
           ~title:(Printf.sprintf "%s (%d acquires)" bench (Tracegen.acquire_count trace))
           ~header:
             ([ "policy"; "fast %"; "fat-res" ]
             @ (if contended then [ "cont" ] else [])
             @ [ "infl"; "defl"; "abort"; "re-infl"; "thrash/1k"; "score" ])
           ~align:(T.Left :: List.init (if contended then 9 else 8) (fun _ -> T.Right))
           (List.map
              (fun s ->
                [ s.policy; Printf.sprintf "%.1f" (100.0 *. s.fast_ratio);
                  Printf.sprintf "%.1f" s.fat_residency ]
                @ cont s
                @ [
                    string_of_int s.inflations;
                    string_of_int s.deflations;
                    string_of_int s.aborted;
                    string_of_int s.reinflations;
                    Printf.sprintf "%.2f" s.thrash;
                    Printf.sprintf "%.2f" (lab_score s);
                  ])
              scores));
      match kind with
      | `Policies ->
          let ranked = List.sort (fun a b -> compare (lab_score a) (lab_score b)) scores in
          Buffer.add_string buf
            (Printf.sprintf "ranking: %s\n\n"
               (String.concat " < " (List.map (fun s -> s.policy) ranked)))
      | `Evaporates -> Buffer.add_string buf "\n")
    benchmarks;
  Buffer.add_string buf (outro kind);
  Buffer.contents buf

let table ?(max_syncs = 20_000) ?(seed = 1998) ?(benchmarks = default_benchmarks) ?controlled
    entry =
  lab_table ~who:"table" ~max_syncs ~seed ~benchmarks ~controlled ~contended:false
    ~replay:(fun ?reap trace -> replay_traced ?reap entry trace)
    ~intro:(function
      | `Evaporates ->
          Printf.sprintf
            "Policy lab: macro traces replayed on the CJM transient monitor table\n\
             (no header word, no deflation policy — monitors evaporate the moment a\n\
             releaser finds them idle; infl/defl are monitor create/evaporate;\n\
             quiescence announced every 64 ops; %d ops per trace, seed %d).\n\
             lab score = slow-path %% + re-inflations per 1000 acquires (lower is better).\n\n"
            max_syncs seed
      | `Policies ->
          Printf.sprintf
            "Policy lab: macro traces replayed under each deflation policy\n\
             (1-bit nest count so depth-3 episodes overflow-inflate; quiescence\n\
             announced every 64 ops drives the reaper; %d ops per trace, seed %d).\n\
             lab score = slow-path %% + re-inflations per 1000 acquires (lower is better).\n\n"
            max_syncs seed)
    ~outro:(function
      | `Evaporates ->
          "(one row per trace: CJM's lifecycle has no policy dimension to rank — the\n\
           table exists for head-to-head comparison against the thin-scheme lab.)\n"
      | `Policies ->
          "(zero-contended-episodes tracks always-idle here: single-threaded replays never\n\
           queue, so every monitor has zero contended episodes.)\n")
    entry

let table_par ?(max_syncs = 20_000) ?(seed = 1998) ?(benchmarks = default_benchmarks)
    ?(interleave = true) ?(backend = Parallel_replay.Os_domains) ?controlled ~domains ~mode
    entry =
  let backend_name =
    match backend with
    | Parallel_replay.Os_domains -> "domains"
    | Parallel_replay.Fibers -> "fiber-carrier domains"
  in
  lab_table ~who:"table_par" ~max_syncs ~seed ~benchmarks ~controlled ~contended:true
    ~replay:(fun ?reap trace ->
      snd (replay_traced_par ~interleave ~backend ?reap ~domains ~mode entry trace))
    ~intro:(function
      | `Evaporates ->
          Printf.sprintf
            "Policy lab, parallel: macro traces replayed across %d %s (%s mode)\n\
             on the CJM transient monitor table (no header word, no deflation policy;\n\
             infl/defl are monitor create/evaporate%s; %d ops per trace, seed %d).\n\
             lab score = slow-path %% + re-inflations per 1000 acquires (lower is better).\n\n"
            domains backend_name
            (Parallel_replay.mode_name mode)
            (if interleave then "; interleave ticks on" else "")
            max_syncs seed
      | `Policies ->
          Printf.sprintf
            "Policy lab, parallel: macro traces replayed across %d %s (%s mode)\n\
             under each deflation policy (1-bit nest count; quiescence announced\n\
             every 64 ops per domain drives the reaper%s; %d ops per trace, seed %d).\n\
             lab score = slow-path %% + re-inflations per 1000 acquires (lower is better).\n\n"
            domains backend_name
            (Parallel_replay.mode_name mode)
            (if interleave then ", with interleave ticks" else "")
            max_syncs seed)
    ~outro:(function
      | `Evaporates ->
          "(one row per trace: CJM's lifecycle has no policy dimension to rank — compare\n\
           the create/evaporate churn and residency against the thin-scheme lab.)\n"
      | `Policies ->
          "(contended episodes give zero-contended-episodes something to protect: monitors\n\
           that queued threads stay fat under it, while always-idle deflates them and\n\
           pays the re-inflation.)\n")
    entry
