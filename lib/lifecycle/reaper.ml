module Fatlock = Tl_monitor.Fatlock
module Montable = Tl_monitor.Montable
module Thin = Tl_core.Thin
module Lock_stats = Tl_core.Lock_stats
module Timer = Tl_util.Timer

type scan = {
  scanned : int;
  candidates : int;
  deflated : int;
  aborted : int;
  lost_races : int;
  elapsed : float;
}

let empty_scan =
  { scanned = 0; candidates = 0; deflated = 0; aborted = 0; lost_races = 0; elapsed = 0.0 }

let add_scans a b =
  {
    scanned = a.scanned + b.scanned;
    candidates = a.candidates + b.candidates;
    deflated = a.deflated + b.deflated;
    aborted = a.aborted + b.aborted;
    lost_races = a.lost_races + b.lost_races;
    elapsed = a.elapsed +. b.elapsed;
  }

let pp_scan ppf s =
  Format.fprintf ppf "scanned %d, candidates %d, deflated %d, aborted %d, lost races %d, %.0f us"
    s.scanned s.candidates s.deflated s.aborted s.lost_races (s.elapsed *. 1e6)

(* One mount of the reaper: the engine and counter handles are resolved
   once, and the tallies are rewritten by each sweep, so a sweep of an
   empty table allocates nothing.  A job is swept by one thread at a
   time (each mount is single-flight, and [scan_once] makes its own). *)
type job = {
  ctx : Thin.ctx;
  table : Montable.t;
  engine : Policy.engine;
  (* with the controller's ["controller.switches"] counter *)
  controller : (Controller.t * Lock_stats.counter) option;
  scans : Lock_stats.counter;
  scan_ns : Lock_stats.counter;
  mutable scanned : int;
  mutable candidates : int;
  mutable deflated : int;
  mutable aborted : int;
  mutable lost_races : int;
  mutable elapsed_ns : int;
}

let job ?(policy = Policy.always_idle) ?controller ctx =
  let counter = Lock_stats.counter (Thin.stats ctx) in
  {
    ctx;
    table = Thin.montable ctx;
    engine =
      (match controller with Some c -> Controller.engine c | None -> Policy.fixed policy);
    controller = Option.map (fun c -> (c, counter "controller.switches")) controller;
    scans = counter "reaper.scans";
    scan_ns = counter "reaper.scan_ns";
    scanned = 0;
    candidates = 0;
    deflated = 0;
    aborted = 0;
    lost_races = 0;
    elapsed_ns = 0;
  }

let visit job ~handle (entry : Montable.entry) =
  job.scanned <- job.scanned + 1;
  (* A retired monitor in the census is just the tiny window before
     the winning deflater frees its slot; skip it. *)
  if not (Fatlock.is_retired entry.fat) then begin
    let shard = Montable.shard_of_handle job.table handle in
    let candidate =
      {
        Policy.idle_scans = Fatlock.observe_idle entry.fat;
        contended_episodes = Fatlock.contended_episodes entry.fat;
      }
    in
    (* The controller sees every live entry — deflation decisions
       and the statistics they feed back on ride the same walk. *)
    (match job.controller with
    | Some (c, _) ->
        Controller.observe c
          {
            Controller.shard;
            tag = Fatlock.tag entry.fat;
            idle_scans = candidate.Policy.idle_scans;
            contended_episodes = candidate.Policy.contended_episodes;
            pipeline_quiet = Fatlock.pipeline_quiet entry.fat;
          }
    | None -> ());
    if Policy.engine_decide job.engine ~shard candidate then begin
      job.candidates <- job.candidates + 1;
      let tag = Fatlock.tag entry.fat in
      (* The handshake re-validates everything; the census entry
         may be stale by now (freed, even reallocated), in which
         case the lock word no longer names it and the attempt
         resolves as a lost race or a no-op. *)
      match Thin.deflate_lockword job.ctx ~cause:`Concurrent entry.lockword with
      | `Deflated ->
          job.deflated <- job.deflated + 1;
          (match job.controller with
          | Some (c, _) -> Controller.note_deflated c ~shard ~tag
          | None -> ())
      | `Busy -> job.aborted <- job.aborted + 1
      | `Lost_race | `Not_inflated -> job.lost_races <- job.lost_races + 1
    end
  end

let rec book_switches counter events = function
  | [] -> ()
  | sw :: rest ->
      Lock_stats.count counter 1;
      if Tl_events.Sink.enabled events then
        Tl_events.Sink.emit_system events ~kind:Tl_events.Event.Policy_switch
          ~arg:(Controller.pack_switch sw);
      book_switches counter events rest

let sweep job =
  let t0 = Timer.now_ns_int () in
  job.scanned <- 0;
  job.candidates <- 0;
  job.deflated <- 0;
  job.aborted <- 0;
  job.lost_races <- 0;
  (* An empty table skips the walk, whose cost is the highest slot
     ever allocated, not the live count.  [live] is racy like the walk:
     a monitor it misses is seen by the next scan. *)
  if Montable.live job.table > 0 then Montable.iter_live job.table (visit job);
  let elapsed_ns = Timer.now_ns_int () - t0 in
  job.elapsed_ns <- elapsed_ns;
  Lock_stats.count job.scans 1;
  Lock_stats.count job.scan_ns elapsed_ns;
  let events = Thin.events job.ctx in
  if Tl_events.Sink.enabled events then
    Tl_events.Sink.emit_system events ~kind:Tl_events.Event.Reaper_scan ~arg:job.deflated;
  (* Epoch boundaries land here: the controller's decision step runs on
     the scanning thread, and every switch is traced on the system
     stream before the next census walk can act on the new policy. *)
  match job.controller with
  | Some (c, switches) -> book_switches switches events (Controller.scan_complete c)
  | None -> ()

let result job =
  {
    scanned = job.scanned;
    candidates = job.candidates;
    deflated = job.deflated;
    aborted = job.aborted;
    lost_races = job.lost_races;
    elapsed = float_of_int job.elapsed_ns *. 1e-9;
  }

let scan_once ?policy ?controller ctx =
  let job = job ?policy ?controller ctx in
  sweep job;
  result job

(* Background reaper thread. *)

type t = {
  stop_flag : bool Atomic.t;
  mutable thread : Thread.t option; (* None once joined *)
  totals_mutex : Mutex.t;
  mutable totals : scan;
  mutable scans : int;
}

let accumulate t s =
  Mutex.lock t.totals_mutex;
  t.totals <- add_scans t.totals s;
  t.scans <- t.scans + 1;
  Mutex.unlock t.totals_mutex

let totals t =
  Mutex.lock t.totals_mutex;
  let s = t.totals in
  Mutex.unlock t.totals_mutex;
  s

let scans t =
  Mutex.lock t.totals_mutex;
  let n = t.scans in
  Mutex.unlock t.totals_mutex;
  n

let start ?policy ?controller ?(interval = 0.0005) ctx =
  let t =
    {
      stop_flag = Atomic.make false;
      thread = None;
      totals_mutex = Mutex.create ();
      totals = empty_scan;
      scans = 0;
    }
  in
  let job = job ?policy ?controller ctx in
  let body () =
    while not (Atomic.get t.stop_flag) do
      sweep job;
      accumulate t (result job);
      (* Yield even with a zero interval so single-core schedulers let
         the mutators run between scans. *)
      if interval > 0.0 then Thread.delay interval else Thread.yield ()
    done
  in
  t.thread <- Some (Thread.create body ());
  t

let stop t =
  Atomic.set t.stop_flag true;
  (match t.thread with Some th -> Thread.join th | None -> ());
  t.thread <- None;
  totals t

let on_quiescence ?policy ?controller ?(every = 1) runtime ctx =
  if every < 1 then invalid_arg "Reaper.on_quiescence: every";
  let job = job ?policy ?controller ctx in
  let collapsed = Lock_stats.counter (Thin.stats ctx) "reaper.collapsed_scans" in
  (* Single-flight: multi-domain replays announce quiescence from every
     domain, and overlapping scans are worse than useless — each walk
     calls [observe_idle], so two racing scans reset each other's
     consecutive-idle counts and starve hysteresis policies.  A scan
     already in flight turns later announcements into no-ops (counted,
     so reports can show the collapse rate).  The plain read first
     keeps a collapsed announcement off the flag's cache line for
     writing. *)
  let in_flight = Atomic.make false in
  let attempt () =
    if (not (Atomic.get in_flight)) && Atomic.compare_and_set in_flight false true then begin
      match sweep job with
      | () -> Atomic.set in_flight false
      | exception e ->
          Atomic.set in_flight false;
          raise e
    end
    else Lock_stats.count collapsed 1
  in
  if every = 1 then Tl_runtime.Runtime.on_quiescence runtime attempt
  else begin
    let announcements = Atomic.make 0 in
    Tl_runtime.Runtime.on_quiescence runtime (fun () ->
        if Atomic.fetch_and_add announcements 1 mod every = every - 1 then attempt ())
  end
