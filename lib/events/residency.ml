let dwell_buckets = 31

type t = {
  mutable events : int;
  mutable first_seq : int;  (* -1 until the first event *)
  mutable last_seq : int;
  mutable area : int;  (* live monitors times seq ticks: exact in an int *)
  mutable live : int;
  mutable live_peak : int;
  mutable inflations : int;
  mutable deflations : int;
  mutable reinflations : int;
  mutable aborted : int;
  mutable episodes : int;
  open_since : (int, int) Hashtbl.t;  (* live object id -> inflation seq *)
  deflated_once : (int, unit) Hashtbl.t;
  contended : (int, int) Hashtbl.t;  (* object id -> contended episodes *)
  dwell : int array;
}

type summary = {
  events : int;
  span : int;
  fat_area : float;
  fat_residency : float;
  inflations : int;
  deflations : int;
  reinflations : int;
  aborted : int;
  live_now : int;
  live_peak : int;
  contended_objects : int;
  contended_episodes : int;
  hottest : (int * int) option;
  dwell : int array;
  open_monitors : (int * int) list;
}

let create () =
  {
    events = 0;
    first_seq = -1;
    last_seq = -1;
    area = 0;
    live = 0;
    live_peak = 0;
    inflations = 0;
    deflations = 0;
    reinflations = 0;
    aborted = 0;
    episodes = 0;
    open_since = Hashtbl.create 64;
    deflated_once = Hashtbl.create 64;
    contended = Hashtbl.create 64;
    dwell = Array.make dwell_buckets 0;
  }

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

(* The area accumulates before the kind dispatch: the interval that
   ends at an event is weighted by the monitors live before it. *)
let feed t ~seq ~kind ~arg =
  if t.first_seq < 0 then t.first_seq <- seq
  else t.area <- t.area + (t.live * (seq - t.last_seq));
  t.last_seq <- seq;
  t.events <- t.events + 1;
  match kind with
  (* [Cjm_monitor_create] is the cjm scheme's inflation and
     [Cjm_monitor_evaporate] its deflation: the residency integral
     (live monitors over seq ticks) is protocol-agnostic, so both feed
     the same counters. *)
  | Event.Inflate_contention | Event.Inflate_wait | Event.Inflate_overflow
  | Event.Cjm_monitor_create ->
      t.inflations <- t.inflations + 1;
      t.live <- t.live + 1;
      if t.live > t.live_peak then t.live_peak <- t.live;
      if Hashtbl.mem t.deflated_once arg then
        t.reinflations <- t.reinflations + 1;
      Hashtbl.replace t.open_since arg seq
  | Event.Deflate_quiescent | Event.Deflate_concurrent
  | Event.Cjm_monitor_evaporate ->
      t.deflations <- t.deflations + 1;
      t.live <- t.live - 1;
      Hashtbl.replace t.deflated_once arg ();
      (match Hashtbl.find_opt t.open_since arg with
      | Some since ->
          Hashtbl.remove t.open_since arg;
          let b = bucket (seq - since) in
          t.dwell.(b) <- t.dwell.(b) + 1
      | None -> ())
  | Event.Deflate_aborted -> t.aborted <- t.aborted + 1
  | Event.Contended_begin ->
      t.episodes <- t.episodes + 1;
      let n = Option.value ~default:0 (Hashtbl.find_opt t.contended arg) in
      Hashtbl.replace t.contended arg (n + 1)
  | Event.Acquire_fast | Event.Acquire_nested | Event.Acquire_fat
  | Event.Acquire_fat_queued | Event.Release_fast | Event.Release_nested
  | Event.Release_fat | Event.Contended_end | Event.Wait_op | Event.Notify_op
  | Event.Notify_all_op | Event.Reaper_scan | Event.Quiescence
  | Event.Tid_overflow | Event.Policy_switch ->
      ()

let summary t =
  let span = if t.first_seq < 0 then 0 else t.last_seq - t.first_seq in
  let hottest =
    Hashtbl.fold
      (fun id n best ->
        match best with
        | Some (bid, bn) when bn > n || (bn = n && bid <= id) -> best
        | _ -> Some (id, n))
      t.contended None
  in
  {
    events = t.events;
    span;
    fat_area = float_of_int t.area;
    fat_residency = (if span = 0 then 0.0 else float_of_int t.area /. float_of_int span);
    inflations = t.inflations;
    deflations = t.deflations;
    reinflations = t.reinflations;
    aborted = t.aborted;
    live_now = t.live;
    live_peak = t.live_peak;
    contended_objects = Hashtbl.length t.contended;
    contended_episodes = t.episodes;
    hottest;
    dwell = Array.copy t.dwell;
    open_monitors =
      Hashtbl.fold (fun id since acc -> (id, since) :: acc) t.open_since []
      |> List.sort compare;
  }

let of_drained (d : Sink.drained) =
  let t = create () in
  Sink.iter (fun ~seq ~tid:_ ~kind ~arg ~ord:_ -> feed t ~seq ~kind ~arg) d;
  summary t

let pp ppf (s : summary) =
  Format.fprintf ppf
    "residency: %d events over %d seq ticks@\n\
    \  fat residency     %.3f live monitors (area %.1f)@\n\
    \  inflations        %d (%d re-inflations)@\n\
    \  deflations        %d (%d aborted handshakes)@\n\
    \  live at end       %d (peak %d)@\n\
    \  contended         %d episode(s) over %d object(s)"
    s.events s.span s.fat_residency s.fat_area s.inflations s.reinflations
    s.deflations s.aborted s.live_now s.live_peak s.contended_episodes
    s.contended_objects;
  (match s.hottest with
  | Some (id, n) when n > 0 ->
      Format.fprintf ppf "@\n  hottest object    %d (%d episode(s))" id n
  | _ -> ());
  let shown = ref false in
  Array.iteri
    (fun b n ->
      if n > 0 then begin
        if not !shown then begin
          shown := true;
          Format.fprintf ppf "@\n  fat dwell (seq ticks):"
        end;
        Format.fprintf ppf "@\n    [%7d, %7d)  %d" (1 lsl b) (1 lsl (b + 1)) n
      end)
    s.dwell;
  if s.open_monitors <> [] then
    Format.fprintf ppf "@\n  still fat at end  %d monitor(s)"
      (List.length s.open_monitors)
