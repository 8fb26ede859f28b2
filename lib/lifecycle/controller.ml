(* The deflation feedback controller.  See the .mli for the model; the
   short version: the reaper feeds one [observe] per live census entry
   and one [note_deflated] per successful handshake, and every
   [epoch_scans] scans each shard re-scores the candidate ladder
   against its smoothed thrash/contention estimates and maybe
   switches.  All mutation happens under one mutex — the feed arrives
   from whichever thread runs the census walk, and walks are already
   single-flight (see [Reaper.on_quiescence]), so the lock is
   uncontended in practice. *)

type config = {
  epoch_scans : int;
  patience : int;
  margin : float;
  thrash_weight : float;
  ewma_alpha : float;
  explore_budget : int;
  explore_refill : int;
  initial_policy : int;
}

(* Conservative -> eager.  Index order matters: an "eager-ward" switch
   (one the hapax pipeline guard can veto) is a move to a higher
   index. *)
let candidates =
  [|
    Policy.never;
    Policy.zero_contended_episodes;
    Policy.idle_for ~quiescence_points:4;
    Policy.always_idle;
  |]

let n_policies = Array.length candidates
let default_policy = 2 (* idle-for-4: neutral hysteresis start *)
let policy_name i = candidates.(i).Policy.name

let policy_index name =
  let rec find i =
    if i >= n_policies then None
    else if String.equal candidates.(i).Policy.name name then Some i
    else find (i + 1)
  in
  find 0

let default_config =
  {
    epoch_scans = 4;
    patience = 2;
    margin = 0.25;
    (* 1.0 calibrated on the lab's macro traces: their per-deflation
       re-inflation rates under eager policies sit near 0.9, and any
       weight much above 1 makes the model flee always-idle on exactly
       the workloads where the lab crowns it (javalex, mocha).  Heavier
       weights remain the right setting for thrash-dominated regimes —
       the property battery pins regime convergence at weight 4. *)
    thrash_weight = 1.0;
    ewma_alpha = 0.3;
    explore_budget = 4;
    explore_refill = 32;
    initial_policy = default_policy;
  }

(* Dwell histograms use the same log2 bucketing as the offline
   residency monitor, except the unit is census scans, not seq
   ticks. *)
let dwell_buckets = Tl_events.Residency.dwell_buckets

let bucket d =
  if d <= 1 then 0
  else begin
    let b = ref 0 and v = ref d in
    while !v > 1 do
      v := !v lsr 1;
      incr b
    done;
    min !b (dwell_buckets - 1)
  end

type shard_state = {
  mutable policy : int;
  (* hysteresis: the challenger currently on a winning streak *)
  mutable pending : int;
  mutable pending_count : int;
  mutable switches : int; (* hysteresis switches only *)
  mutable explorations : int;
  mutable epochs : int;
  (* current-epoch accumulators *)
  mutable idle_obs : int;
  mutable busy_obs : int;
  mutable contended_obs : int;
  mutable defl_epoch : int;
  mutable reinfl_epoch : int;
  mutable pipeline_busy : bool;
  (* smoothed estimates *)
  mutable reinfl_rate : float;
  mutable contended_frac : float;
  mutable have_estimates : bool;
  (* running totals *)
  mutable deflations : int;
  mutable reinflations : int;
  (* exploration *)
  mutable tokens : float;
  mutable exploring : bool;
  mutable resume : int;
  mutable quiet_epochs : int; (* consecutive epochs with zero deflations *)
  (* per-object tracking: tags we deflated (armed for thrash
     detection) and when each live tag was first seen fat *)
  deflated_tags : (int, unit) Hashtbl.t;
  first_seen : (int, int) Hashtbl.t;
  dwell : int array;
}

type t = {
  cfg : config;
  nshards : int;
  mutex : Mutex.t;
  shards : shard_state array;
  mutable scan_no : int;
  mutable scans_in_epoch : int;
  mutable switches_total : int;
}

let create ?(config = default_config) ~nshards () =
  if nshards < 1 then invalid_arg "Controller.create: nshards";
  if config.epoch_scans < 1 then invalid_arg "Controller.create: epoch_scans";
  if config.patience < 1 then invalid_arg "Controller.create: patience";
  if config.initial_policy < 0 || config.initial_policy >= n_policies then
    invalid_arg "Controller.create: initial_policy";
  let shard () =
    {
      policy = config.initial_policy;
      pending = config.initial_policy;
      pending_count = 0;
      switches = 0;
      explorations = 0;
      epochs = 0;
      idle_obs = 0;
      busy_obs = 0;
      contended_obs = 0;
      defl_epoch = 0;
      reinfl_epoch = 0;
      pipeline_busy = false;
      reinfl_rate = 0.0;
      contended_frac = 0.0;
      have_estimates = false;
      deflations = 0;
      reinflations = 0;
      tokens = float_of_int config.explore_budget;
      exploring = false;
      resume = config.initial_policy;
      quiet_epochs = 0;
      deflated_tags = Hashtbl.create 64;
      first_seen = Hashtbl.create 64;
      dwell = Array.make dwell_buckets 0;
    }
  in
  {
    cfg = config;
    nshards;
    mutex = Mutex.create ();
    shards = Array.init nshards (fun _ -> shard ());
    scan_no = 0;
    scans_in_epoch = 0;
    switches_total = 0;
  }

let config t = t.cfg
let nshards t = t.nshards
let shard_of t i = t.shards.(i land (t.nshards - 1))

(* [with_lock t f x] runs [f t x] under the mutex.  Callers pass
   closed functions, so taking the lock allocates nothing: the census
   feed takes it once per live entry, [scan_complete] once per scan. *)
let with_lock t f x =
  Mutex.lock t.mutex;
  match f t x with
  | v ->
      Mutex.unlock t.mutex;
      v
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

(* --- the census feed --- *)

type observation = {
  shard : int;
  tag : int;
  idle_scans : int;
  contended_episodes : int;
  pipeline_quiet : bool;
}

(* Thrash-arming tables are bounded: a replay cycling millions of
   distinct objects through one-shot monitors must not grow the
   controller without limit.  Resetting forgets some armed tags —
   worth at most one missed re-inflation sample each. *)
let max_tracked_tags = 1 lsl 14

let observe_locked t (o : observation) =
  let s = shard_of t o.shard in
  if o.idle_scans >= 1 then s.idle_obs <- s.idle_obs + 1
  else s.busy_obs <- s.busy_obs + 1;
  if o.contended_episodes > 0 then s.contended_obs <- s.contended_obs + 1;
  if not o.pipeline_quiet then s.pipeline_busy <- true;
  if Hashtbl.mem s.deflated_tags o.tag then begin
    Hashtbl.remove s.deflated_tags o.tag;
    s.reinfl_epoch <- s.reinfl_epoch + 1;
    s.reinflations <- s.reinflations + 1
  end;
  if not (Hashtbl.mem s.first_seen o.tag) then begin
    if Hashtbl.length s.first_seen >= max_tracked_tags then
      Hashtbl.reset s.first_seen;
    Hashtbl.replace s.first_seen o.tag t.scan_no
  end

let observe t o = with_lock t observe_locked o

let note_deflated_locked t (shard, tag) =
  let s = shard_of t shard in
  s.defl_epoch <- s.defl_epoch + 1;
  s.deflations <- s.deflations + 1;
  if Hashtbl.length s.deflated_tags >= max_tracked_tags then
    Hashtbl.reset s.deflated_tags;
  Hashtbl.replace s.deflated_tags tag ();
  match Hashtbl.find_opt s.first_seen tag with
  | Some since ->
      Hashtbl.remove s.first_seen tag;
      let b = bucket (t.scan_no - since + 1) in
      s.dwell.(b) <- s.dwell.(b) + 1
  | None -> ()

let note_deflated t ~shard ~tag = with_lock t note_deflated_locked (shard, tag)

(* --- the decision step --- *)

type switch = {
  shard : int;
  from_policy : int;
  to_policy : int;
  score : int;
  explore : bool;
}

(* keep(p): fraction of idle monitors the policy leaves fat.  idle-for-4
   sits between the extremes — it deflates everything eventually but
   holds each monitor through ~half an epoch of extra residency. *)
let keep_frac s = function
  | 0 -> 1.0
  | 1 -> s.contended_frac
  | 2 -> 0.5
  | _ -> 0.0

let cost cfg s p =
  let keep = keep_frac s p in
  keep +. ((1.0 -. keep) *. s.reinfl_rate *. cfg.thrash_weight)

let milli_score c = max 0 (min 0xFFFFF (int_of_float (c *. 1000.0)))

let ewma cfg prev sample first =
  if first then sample else prev +. (cfg.ewma_alpha *. (sample -. prev))

(* One shard's epoch boundary.  Returns the switches (0, 1, or — when
   an exploration excursion ends and a hysteresis move fires in the
   same epoch — up to 2) in the order they logically happen. *)
let decide_shard t shard_idx s =
  let cfg = t.cfg in
  let out = ref [] in
  let emit ~from_policy ~to_policy ~score ~explore =
    out := { shard = shard_idx; from_policy; to_policy; score; explore } :: !out;
    t.switches_total <- t.switches_total + 1
  in
  s.epochs <- s.epochs + 1;
  (* token refill *)
  if cfg.explore_refill > 0 && s.epochs mod cfg.explore_refill = 0 then
    s.tokens <- Float.min (float_of_int cfg.explore_budget) (s.tokens +. 1.0);
  (* estimate updates from this epoch's evidence *)
  let total_obs = s.idle_obs + s.busy_obs in
  if total_obs > 0 then begin
    let cf = float_of_int s.contended_obs /. float_of_int total_obs in
    s.contended_frac <- ewma cfg s.contended_frac cf (not s.have_estimates)
  end;
  if s.defl_epoch > 0 || s.reinfl_epoch > 0 then begin
    let sample =
      Float.min 1.0
        (float_of_int s.reinfl_epoch /. float_of_int (max 1 s.defl_epoch))
    in
    s.reinfl_rate <- ewma cfg s.reinfl_rate sample (not s.have_estimates);
    s.have_estimates <- true
  end;
  if s.defl_epoch = 0 then s.quiet_epochs <- s.quiet_epochs + 1
  else s.quiet_epochs <- 0;
  (* an exploration excursion ends after exactly one epoch *)
  if s.exploring then begin
    s.exploring <- false;
    s.explorations <- s.explorations + 1;
    let back = s.resume in
    emit ~from_policy:s.policy ~to_policy:back
      ~score:(milli_score (cost cfg s back))
      ~explore:true;
    s.policy <- back;
    s.pending <- back;
    s.pending_count <- 0
  end;
  (* hysteresis: does some candidate beat the incumbent by the margin? *)
  if total_obs > 0 then begin
    let best = ref 0 in
    for p = 1 to n_policies - 1 do
      if cost cfg s p < cost cfg s !best then best := p
    done;
    let best = !best in
    if
      best <> s.policy
      && cost cfg s best *. (1.0 +. cfg.margin) < cost cfg s s.policy
    then begin
      if s.pending = best then s.pending_count <- s.pending_count + 1
      else begin
        s.pending <- best;
        s.pending_count <- 1
      end;
      if s.pending_count >= cfg.patience then
        (* Eager-ward switches are vetoed while the shard's admission
           pipeline was seen non-quiet this epoch: deflating under
           ticketed arrivals composes badly with FIFO admission.  The
           streak is kept, so the switch fires once the pipeline
           drains. *)
        if best > s.policy && s.pipeline_busy then ()
        else begin
          emit ~from_policy:s.policy ~to_policy:best
            ~score:(milli_score (cost cfg s best))
            ~explore:false;
          s.policy <- best;
          s.switches <- s.switches + 1;
          s.pending <- best;
          s.pending_count <- 0
        end
    end
    else s.pending_count <- 0
  end;
  (* exploration: with no recent deflations the thrash estimate is
     stale; pay a token to run one eager epoch and refresh it.  Only
     from a stable conservative incumbent, only with idle monitors to
     act on, and never under a busy pipeline. *)
  if
    (not s.exploring)
    && s.policy < n_policies - 1
    && s.quiet_epochs >= 2
    && s.tokens >= 1.0
    && s.idle_obs > 0
    && not s.pipeline_busy
  then begin
    s.tokens <- s.tokens -. 1.0;
    let eager = n_policies - 1 in
    emit ~from_policy:s.policy ~to_policy:eager
      ~score:(milli_score (cost cfg s eager))
      ~explore:true;
    s.resume <- s.policy;
    s.policy <- eager;
    s.exploring <- true
  end;
  (* reset epoch accumulators *)
  s.idle_obs <- 0;
  s.busy_obs <- 0;
  s.contended_obs <- 0;
  s.defl_epoch <- 0;
  s.reinfl_epoch <- 0;
  s.pipeline_busy <- false;
  List.rev !out

let scan_complete_locked t () =
  t.scan_no <- t.scan_no + 1;
  t.scans_in_epoch <- t.scans_in_epoch + 1;
  if t.scans_in_epoch < t.cfg.epoch_scans then []
  else begin
    t.scans_in_epoch <- 0;
    let out = ref [] in
    Array.iteri
      (fun i s -> out := !out @ decide_shard t i s)
      t.shards;
    !out
  end

let scan_complete t = with_lock t scan_complete_locked ()

let policy_for t shard =
  with_lock t (fun t shard -> candidates.((shard_of t shard).policy)) shard

let engine t =
  Policy.controlled (fun ~shard c ->
      (* unlatched read of the incumbent index: the decide path runs
         once per census entry and a torn read at worst applies the
         neighbouring epoch's policy to one candidate *)
      (candidates.((shard_of t shard).policy)).Policy.decide c)

(* --- event packing --- *)

let shard_bits = 12
let policy_bits = 4
let score_bits = 20
let explore_bit = shard_bits + (2 * policy_bits) + score_bits

let pack_switch (sw : switch) =
  let shard = sw.shard land ((1 lsl shard_bits) - 1) in
  let fp = sw.from_policy land ((1 lsl policy_bits) - 1) in
  let tp = sw.to_policy land ((1 lsl policy_bits) - 1) in
  let score = max 0 (min ((1 lsl score_bits) - 1) sw.score) in
  shard
  lor (fp lsl shard_bits)
  lor (tp lsl (shard_bits + policy_bits))
  lor (score lsl (shard_bits + (2 * policy_bits)))
  lor ((if sw.explore then 1 else 0) lsl explore_bit)

let unpack_switch arg =
  {
    shard = arg land ((1 lsl shard_bits) - 1);
    from_policy = (arg lsr shard_bits) land ((1 lsl policy_bits) - 1);
    to_policy = (arg lsr (shard_bits + policy_bits)) land ((1 lsl policy_bits) - 1);
    score = (arg lsr (shard_bits + (2 * policy_bits))) land ((1 lsl score_bits) - 1);
    explore = (arg lsr explore_bit) land 1 = 1;
  }

let pp_switch ppf (sw : switch) =
  Format.fprintf ppf "shard %d: %s -> %s (cost %.3f%s)" sw.shard
    (policy_name sw.from_policy) (policy_name sw.to_policy)
    (float_of_int sw.score /. 1000.0)
    (if sw.explore then ", explore" else "")

(* --- reporting --- *)

type shard_snapshot = {
  policy : int;
  switches : int;
  explorations : int;
  epochs : int;
  reinfl_rate : float;
  contended_frac : float;
  deflations : int;
  reinflations : int;
  dwell : int array;
}

let snapshot t =
  with_lock t
    (fun t () ->
      Array.map
        (fun (s : shard_state) ->
          {
            policy = s.policy;
            switches = s.switches;
            explorations = s.explorations;
            epochs = s.epochs;
            reinfl_rate = s.reinfl_rate;
            contended_frac = s.contended_frac;
            deflations = s.deflations;
            reinflations = s.reinflations;
            dwell = Array.copy s.dwell;
          })
        t.shards)
    ()

let switches_total t = with_lock t (fun t () -> t.switches_total) ()
