open Tl_runtime
open Effect.Deep

type world = {
  threads : (Runtime.env -> unit) array;
  invariant : unit -> string option;
  final : unit -> string option;
}

type violation = { message : string; schedule : int list }

type outcome = {
  explored_paths : int;
  completed_paths : int;
  truncated_paths : int;
  violation : violation option;
}

type _ Effect.t += Park : unit Effect.t | Yield : unit Effect.t

(* Ends a thread left suspended when its path is over. *)
exception Abandoned

type k = (unit, unit) continuation

type status =
  | Fresh
  | Runnable of k (* stopped before an access, or woken *)
  | Yielded of k
  | Parked of k
  | Finished

type thread = { mutable status : status; mutable permit : bool }

type path = {
  world : world;
  ths : thread array;
  mutable envs : Runtime.env array;
  mutable failure : string option; (* an exception escaped a thread *)
  mutable stuttering : bool;
      (* every yielded thread was released because all had yielded, and
         no write or unpark has happened since *)
}

let wake p th =
  match th.status with
  | Parked k ->
      th.status <- Runnable k;
      p.stuttering <- false
  | Fresh | Runnable _ | Yielded _ | Finished -> ()

let release_yielded ?except p =
  Array.iteri
    (fun i th ->
      match th.status with
      | Yielded k when Some i <> except -> th.status <- Runnable k
      | _ -> ())
    p.ths

(* Permit semantics over the path's scheduler: a park with a permit
   consumes it and goes on; without one the thread stops until an
   unpark.  A timed park may expire at any scheduling point. *)
let parker p th =
  let consume () =
    let had = th.permit in
    th.permit <- false;
    had
  in
  Parker.make
    ~park:(fun () -> if not (consume ()) then Effect.perform Park)
    ~park_timeout:(fun ~seconds:_ ->
      consume ()
      ||
      (Effect.perform Yield;
       consume ()))
    ~unpark:(fun () ->
      th.permit <- true;
      wake p th)
    ~has_permit:(fun () -> th.permit)
    ~yield:(fun () -> Effect.perform Yield)

let start p i =
  let th = p.ths.(i) in
  match_with p.world.threads.(i) p.envs.(i)
    {
      retc = (fun () -> th.status <- Finished);
      exnc =
        (fun e ->
          th.status <- Finished;
          match e with
          | Abandoned -> ()
          | e ->
              if p.failure = None then
                p.failure <-
                  Some (Printf.sprintf "thread %d raised %s" i (Printexc.to_string e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Atomic.Access -> Some (fun (k : (a, unit) continuation) -> th.status <- Runnable k)
          | Park -> Some (fun (k : (a, unit) continuation) -> th.status <- Parked k)
          | Yield -> Some (fun (k : (a, unit) continuation) -> th.status <- Yielded k)
          | _ -> None);
    }

(* The shim schedules accesses only while [scheduled] is set: exactly
   while a thread of the path runs, and never once control is back
   here, whichever way it came back. *)
let with_scheduling f =
  Atomic.scheduled := true;
  match f () with
  | () -> Atomic.scheduled := false
  | exception e ->
      Atomic.scheduled := false;
      raise e

let resume p i =
  let th = p.ths.(i) in
  with_scheduling (fun () ->
      match th.status with
      | Fresh -> start p i
      | Runnable k | Yielded k | Parked k -> continue k ()
      | Finished -> ())

(* Unwind every thread still suspended, with scheduling off: what the
   unwinding does only counts, and the world is dropped anyway. *)
let abandon p =
  Array.iter
    (fun th ->
      let rec go tries =
        match th.status with
        | (Runnable k | Yielded k | Parked k) when tries > 0 ->
            th.status <- Finished;
            (try discontinue k Abandoned with Abandoned -> ());
            go (tries - 1)
        | _ -> ()
      in
      go 3)
    p.ths

type ending = Completed | Truncated | Violated of string

(* Bounds a path's steps.  The stutter reduction and the livelock check
   end every spin, so no path of the checked worlds comes near it. *)
let max_depth = 10_000

let enabled p =
  let acc = ref [] in
  for i = Array.length p.ths - 1 downto 0 do
    match p.ths.(i).status with
    | Fresh | Runnable _ -> acc := i :: !acc
    | Yielded _ | Parked _ | Finished -> ()
  done;
  !acc

let indices p pred =
  let acc = ref [] in
  Array.iteri (fun i th -> if pred th.status then acc := string_of_int i :: !acc) p.ths;
  String.concat "," (List.rev !acc)

let any p pred = Array.exists (fun th -> pred th.status) p.ths
let is_yielded = function Yielded _ -> true | _ -> false
let is_parked = function Parked _ -> true | _ -> false

(* Run one path on a fresh world.  [decide] picks the next thread from
   the allowed ones, listed with the running thread first when it may
   go on; [schedule] collects the choices, newest first. *)
let run_path ~bound ~schedule setup decide =
  let runtime = Runtime.create () in
  let world = setup runtime in
  let ths = Array.map (fun _ -> { status = Fresh; permit = false }) world.threads in
  let p = { world; ths; envs = [||]; failure = None; stuttering = false } in
  p.envs <-
    Array.mapi
      (fun i th ->
        Runtime.register_current ~parker:(parker p th) runtime ~name:(Printf.sprintf "sim%d" i))
      ths;
  (* A thread runs alone up to its first access: no choice to make. *)
  Array.iteri (fun i _ -> resume p i) ths;
  let rec loop depth last preemptions =
    match (p.failure, world.invariant ()) with
    | Some m, _ | None, Some m -> Violated m
    | None, None -> (
        match enabled p with
        | [] ->
            if any p is_yielded then
              if p.stuttering then
                Violated
                  (Printf.sprintf "livelock: threads %s spin with nothing left to wait for"
                     (indices p is_yielded))
              else begin
                release_yielded p;
                p.stuttering <- true;
                loop depth last preemptions
              end
            else if any p is_parked then
              Violated
                (Printf.sprintf "deadlock: threads %s parked with nobody to wake them (lost wakeup)"
                   (indices p is_parked))
            else begin
              match world.final () with Some m -> Violated m | None -> Completed
            end
        | _ when depth >= max_depth -> Truncated
        | runnable ->
            let last_runs = List.mem last runnable in
            let allowed =
              if not last_runs then runnable
              else if preemptions >= bound then [ last ]
              else last :: List.filter (fun i -> i <> last) runnable
            in
            let i = decide allowed in
            schedule := i :: !schedule;
            let writes = !Atomic.writes in
            resume p i;
            if !Atomic.writes > writes then begin
              release_yielded ~except:i p;
              p.stuttering <- false
            end;
            loop (depth + 1) i (if last_runs && i <> last then preemptions + 1 else preemptions))
  in
  Fun.protect ~finally:(fun () -> abandon p) (fun () -> loop 0 (-1) 0)

type tally = {
  mutable explored : int;
  mutable completed : int;
  mutable truncated : int;
  mutable found : violation option;
}

let record tally schedule ending =
  tally.explored <- tally.explored + 1;
  match ending with
  | Completed -> tally.completed <- tally.completed + 1
  | Truncated -> tally.truncated <- tally.truncated + 1
  | Violated message -> tally.found <- Some { message; schedule = List.rev schedule }

let outcome t =
  {
    explored_paths = t.explored;
    completed_paths = t.completed;
    truncated_paths = t.truncated;
    violation = t.found;
  }

let new_tally () = { explored = 0; completed = 0; truncated = 0; found = None }

let explore ?(preemption_bound = max_int) setup =
  let tally = new_tally () in
  (* The decisions of the current path, deepest first: the choice taken
     and the allowed choices not yet tried there. *)
  let rec next_prefix = function
    | [] -> None
    | (_, []) :: rest -> next_prefix rest
    | (_, alt :: alts) :: rest -> Some ((alt, alts) :: rest)
  in
  let rec search decisions =
    let prefix = Array.of_list (List.rev_map fst decisions) in
    let depth = ref 0 in
    let fresh = ref [] in
    let decide allowed =
      let d = !depth in
      incr depth;
      if d < Array.length prefix then begin
        if not (List.mem prefix.(d) allowed) then
          failwith "Explore.explore: the world builder is not deterministic";
        prefix.(d)
      end
      else
        match allowed with
        | first :: others ->
            fresh := (first, others) :: !fresh;
            first
        | [] -> assert false
    in
    let schedule = ref [] in
    let ending = run_path ~bound:preemption_bound ~schedule setup decide in
    record tally !schedule ending;
    if tally.found = None then
      match next_prefix (!fresh @ decisions) with
      | Some decisions -> search decisions
      | None -> ()
  in
  search [];
  outcome tally

let sample ~schedules ~seed setup =
  let prng = Tl_util.Prng.create seed in
  let tally = new_tally () in
  let rec go n =
    if n > 0 && tally.found = None then begin
      let schedule = ref [] in
      let decide allowed = List.nth allowed (Tl_util.Prng.int prng (List.length allowed)) in
      let ending = run_path ~bound:max_int ~schedule setup decide in
      record tally !schedule ending;
      go (n - 1)
    end
  in
  go schedules;
  outcome tally

let pp_outcome ppf o =
  Format.fprintf ppf "paths=%d completed=%d truncated=%d violation=%s" o.explored_paths
    o.completed_paths o.truncated_paths
    (match o.violation with None -> "none" | Some v -> v.message)
