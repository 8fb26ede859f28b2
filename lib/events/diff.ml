type divergence = { index : int; left : Event.t option; right : Event.t option }

type report = {
  left_events : int;
  right_events : int;
  divergence : divergence option;
  kind_deltas : (Event.kind * int * int) list;
}

let event_equal (a : Event.t) (b : Event.t) = a = b

let compare (l : Sink.drained) (r : Sink.drained) =
  let nl = Array.length l.Sink.events and nr = Array.length r.Sink.events in
  let rec first_divergence i =
    if i >= nl && i >= nr then None
    else if i >= nl then Some { index = i; left = None; right = Some r.Sink.events.(i) }
    else if i >= nr then Some { index = i; left = Some l.Sink.events.(i); right = None }
    else if event_equal l.Sink.events.(i) r.Sink.events.(i) then first_divergence (i + 1)
    else Some { index = i; left = Some l.Sink.events.(i); right = Some r.Sink.events.(i) }
  in
  let kind_deltas =
    List.filter_map
      (fun kind ->
        let cl = Sink.count_kind l kind and cr = Sink.count_kind r kind in
        if cl <> cr then Some (kind, cl, cr) else None)
      Event.all_kinds
  in
  { left_events = nl; right_events = nr; divergence = first_divergence 0; kind_deltas }

let identical r = r.divergence = None && r.kind_deltas = []
let exit_code r = if identical r then 0 else 1

let pp_side ppf = function
  | None -> Format.pp_print_string ppf "<end of stream>"
  | Some e -> Event.pp ppf e

let pp ppf r =
  match r.divergence with
  | None -> Format.fprintf ppf "streams identical (%d events)" r.left_events
  | Some d ->
      Format.fprintf ppf
        "streams diverge at event %d:@\n  left:  %a@\n  right: %a@\n%d vs %d events" d.index
        pp_side d.left pp_side d.right r.left_events r.right_events;
      if r.kind_deltas <> [] then begin
        Format.fprintf ppf "@\nper-kind count deltas (left vs right):";
        List.iter
          (fun (kind, cl, cr) ->
            Format.fprintf ppf "@\n  %-20s %6d %6d  (%+d)" (Event.kind_name kind) cl cr
              (cr - cl))
          r.kind_deltas
      end
