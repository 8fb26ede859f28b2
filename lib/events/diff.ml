type divergence = { index : int; left : Event.t option; right : Event.t option }

type report = {
  left_events : int;
  right_events : int;
  divergence : divergence option;
  kind_deltas : (Event.kind * int * int) list;
}

let same (l : Sink.drained) (r : Sink.drained) i =
  l.Sink.events.(i) = r.Sink.events.(i)
  && l.Sink.args.(i) = r.Sink.args.(i)
  && l.Sink.ords.(i) = r.Sink.ords.(i)
  && Sink.seq l i = Sink.seq r i

let compare (l : Sink.drained) (r : Sink.drained) =
  let nl = Sink.length l and nr = Sink.length r in
  let side d i = if i < Sink.length d then Some (Sink.event d i) else None in
  let rec first_divergence i =
    if i >= nl && i >= nr then None
    else if i < nl && i < nr && same l r i then first_divergence (i + 1)
    else Some { index = i; left = side l i; right = side r i }
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
