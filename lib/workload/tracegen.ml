type t = { profile : Profiles.t; pool_size : int; ops : int array }

let hot_fraction = 0.9

(* Episode nesting-count distribution from per-op depth fractions: the
   number of ops at depth >= k equals the number of episodes with
   nesting >= k, so q(k) is proportional to f(k) - f(k+1). *)
let episode_weights (depths : float array) =
  let n = Array.length depths in
  Array.init n (fun i ->
      let f_k = depths.(i) in
      let f_next = if i + 1 < n then depths.(i + 1) else 0.0 in
      Float.max 0.0 (f_k -. f_next))

let generate ?(seed = 1998) ?(max_syncs = 100_000) (profile : Profiles.t) =
  let prng = Tl_util.Prng.create seed in
  let scale =
    if profile.Profiles.syncs <= max_syncs then 1.0
    else float_of_int max_syncs /. float_of_int profile.Profiles.syncs
  in
  let target_acquires = max 1 (int_of_float (float_of_int profile.Profiles.syncs *. scale)) in
  let pool_size =
    max 1 (int_of_float (float_of_int profile.Profiles.sync_objects *. scale))
  in
  let hot_size = max 1 (min profile.Profiles.working_set pool_size) in
  let weights = episode_weights profile.Profiles.depth_fractions in
  (* Every acquire gets its release, so the trace is exactly twice the
     acquires long; an episode of [nesting] fills [nesting] acquires
     then [nesting] releases at offset [2 * emitted]. *)
  let ops = Array.make (2 * target_acquires) 0 in
  let emitted = ref 0 in
  while !emitted < target_acquires do
    let obj =
      if Tl_util.Prng.float prng 1.0 < hot_fraction then Tl_util.Prng.int prng hot_size
      else Tl_util.Prng.int prng pool_size
    in
    let nesting = 1 + Tl_util.Prng.categorical prng weights in
    let nesting = min nesting (target_acquires - !emitted) in
    let at = 2 * !emitted in
    Array.fill ops at nesting (obj + 1);
    Array.fill ops (at + nesting) nesting (-(obj + 1));
    emitted := !emitted + nesting
  done;
  { profile; pool_size; ops }

let acquire_count t = Array.fold_left (fun acc op -> if op > 0 then acc + 1 else acc) 0 t.ops

let depth_census t =
  let depth = Hashtbl.create 64 in
  let counts = Array.make 4 0 in
  let total = ref 0 in
  Array.iter
    (fun op ->
      if op > 0 then begin
        let idx = op - 1 in
        let d = 1 + (Hashtbl.find_opt depth idx |> Option.value ~default:0) in
        Hashtbl.replace depth idx d;
        counts.(min d 4 - 1) <- counts.(min d 4 - 1) + 1;
        incr total
      end
      else begin
        let idx = -op - 1 in
        let d = Hashtbl.find_opt depth idx |> Option.value ~default:0 in
        Hashtbl.replace depth idx (max 0 (d - 1))
      end)
    t.ops;
  Array.map (fun c -> if !total = 0 then 0.0 else float_of_int c /. float_of_int !total) counts

let distinct_objects_touched t =
  let seen = Hashtbl.create 64 in
  Array.iter (fun op -> if op > 0 then Hashtbl.replace seen (op - 1) ()) t.ops;
  Hashtbl.length seen
