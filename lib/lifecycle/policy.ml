type candidate = { idle_scans : int; contended_episodes : int }
type t = { name : string; decide : candidate -> bool }

module type S = sig
  val name : string
  val decide : candidate -> bool
end

let v ~name decide = { name; decide }
let of_module (module P : S) = { name = P.name; decide = P.decide }
let never = { name = "never"; decide = (fun _ -> false) }
let always_idle = { name = "always-idle"; decide = (fun c -> c.idle_scans >= 1) }

let idle_for ~quiescence_points =
  if quiescence_points < 1 then invalid_arg "Policy.idle_for: quiescence_points";
  {
    name = Printf.sprintf "idle-for-%d" quiescence_points;
    decide = (fun c -> c.idle_scans >= quiescence_points);
  }

let zero_contended_episodes =
  {
    name = "zero-contended-episodes";
    decide = (fun c -> c.idle_scans >= 1 && c.contended_episodes = 0);
  }

let shipped = [ never; always_idle; idle_for ~quiescence_points:4; zero_contended_episodes ]
let of_string name = List.find_opt (fun p -> String.equal p.name name) shipped

let both a b =
  { name = Printf.sprintf "%s&%s" a.name b.name; decide = (fun c -> a.decide c && b.decide c) }

type engine =
  | Fixed of t
  | Controlled of { name : string; decide : shard:int -> candidate -> bool }

let fixed p = Fixed p
let controlled ?(name = "controlled") decide = Controlled { name; decide }
let engine_name = function Fixed p -> p.name | Controlled c -> c.name

let engine_decide engine ~shard c =
  match engine with
  | Fixed p -> p.decide c
  | Controlled e -> e.decide ~shard c
