type t = {
  tids : Tid.table;
  mutable main : env option;
  main_mutex : Mutex.t;
  (* Quiescence machinery (lifecycle extension): hooks fire at every
     announced quiescence point.  The list is behind an atomic so
     registration never blocks running threads; firing reads one
     snapshot.  Oldest first: registration appends, so firing walks the
     list as it stands and allocates nothing. *)
  quiescence_hooks : (unit -> unit) list Atomic.t;
  quiescence_points : int Atomic.t;
  events : Tl_events.Sink.t Atomic.t;
  (* Fiber seam: both fields are injection points filled in by a
     running [Fiber.Scheduler] (lib/fiber sits above this library, so
     the runtime can only hold closures).  [fiber_spawner] makes
     [spawn ~backend:Fiber_backend] work; [released_hook] lets the
     scheduler wake fibers waiting out a tid-lease overflow. *)
  fiber_spawner : (string -> (env -> unit) -> unit -> unit) option Atomic.t;
  released_hook : (unit -> unit) option Atomic.t;
}

and env = {
  descriptor : Tid.descriptor;
  shifted_index : int;
  parker : Parker.t;
  runtime : t;
}

let lock_word_shift = 16

let create () =
  {
    tids = Tid.create_table ();
    main = None;
    main_mutex = Mutex.create ();
    quiescence_hooks = Atomic.make [];
    quiescence_points = Atomic.make 0;
    events = Atomic.make Tl_events.Sink.disabled;
    fiber_spawner = Atomic.make None;
    released_hook = Atomic.make None;
  }

let set_event_sink t sink = Atomic.set t.events sink
let event_sink t = Atomic.get t.events

let rec on_quiescence t f =
  let hooks = Atomic.get t.quiescence_hooks in
  if not (Atomic.compare_and_set t.quiescence_hooks hooks (hooks @ [ f ])) then
    on_quiescence t f

let quiescence_point ~env t =
  Atomic.incr t.quiescence_points;
  let sink = Atomic.get t.events in
  if Tl_events.Sink.enabled sink then begin
    (* Advance first: the announcement is the epoch boundary, so it is
       stamped with the new epoch and sorts after the window it closes. *)
    Tl_events.Sink.advance_epoch sink;
    Tl_events.Sink.emit sink ~tid:env.descriptor.Tid.index ~kind:Tl_events.Event.Quiescence
      ~arg:(Atomic.get t.quiescence_points)
  end;
  (* Oldest-first, so a stats hook registered before a reaper hook sees
     the world the reaper is about to change. *)
  List.iter (fun f -> f ()) (Atomic.get t.quiescence_hooks)

let quiescence_count t = Atomic.get t.quiescence_points

let tid_table t = t.tids

let env_of ?parker t descriptor =
  {
    descriptor;
    shifted_index = descriptor.Tid.index lsl lock_word_shift;
    parker = (match parker with Some p -> p | None -> Parker.create ());
    runtime = t;
  }

let try_register ?parker t ~name =
  match Tid.lease t.tids ~name with
  | None -> None
  | Some d ->
      (* A recycled index gets a fresh stream epoch, so the new
         holder's events always stamp after the previous holder's —
         the drained per-tid stream is a clean concatenation of lease
         segments, never an interleaving. *)
      (if d.Tid.epoch > 0 then
         let sink = Atomic.get t.events in
         if Tl_events.Sink.enabled sink then Tl_events.Sink.advance_epoch sink);
      Some (env_of ?parker t d)

let register_current ?parker t ~name =
  match try_register ?parker t ~name with
  | Some env -> env
  | None -> raise Tid.Exhausted

let unregister env =
  Tid.release env.runtime.tids env.descriptor;
  match Atomic.get env.runtime.released_hook with Some f -> f () | None -> ()

let set_index_released_hook t hook = Atomic.set t.released_hook hook

let main_env t =
  Mutex.lock t.main_mutex;
  let env =
    match t.main with
    | Some env -> env
    | None ->
        let env = register_current t ~name:"main" in
        t.main <- Some env;
        env
  in
  Mutex.unlock t.main_mutex;
  env

type backend = Thread_backend | Domain_backend | Fiber_backend

type completion = { mutable outcome : (unit, exn) result option }

type handle =
  | Thread_handle of Thread.t * completion
  | Domain_handle of unit Domain.t
  | Fiber_handle of (unit -> unit)

let set_fiber_spawner t spawner = Atomic.set t.fiber_spawner spawner

let body_in_env t ~name f () =
  let env = register_current t ~name in
  Fun.protect ~finally:(fun () -> unregister env) (fun () -> f env)

let spawn ?(name = "worker") ?(backend = Thread_backend) t f =
  match backend with
  | Thread_backend ->
      let completion = { outcome = None } in
      let thread =
        Thread.create
          (fun () ->
            let outcome =
              try
                body_in_env t ~name f ();
                Ok ()
              with e -> Error e
            in
            completion.outcome <- Some outcome)
          ()
      in
      Thread_handle (thread, completion)
  | Domain_backend -> Domain_handle (Domain.spawn (body_in_env t ~name f))
  | Fiber_backend -> (
      (* The spawner leases the env itself (it must be able to suspend
         the fiber on lease exhaustion), so no [body_in_env] here. *)
      match Atomic.get t.fiber_spawner with
      | Some spawn_fiber -> Fiber_handle (spawn_fiber name f)
      | None ->
          invalid_arg "Runtime.spawn: Fiber_backend needs a running Fiber.Scheduler")

let join = function
  | Thread_handle (thread, completion) -> (
      Thread.join thread;
      match completion.outcome with
      | Some (Ok ()) -> ()
      | Some (Error e) -> raise e
      | None -> failwith "Runtime.join: thread finished without outcome")
  | Domain_handle d -> Domain.join d
  | Fiber_handle join -> join ()

let run_parallel ?(name_prefix = "worker") ?backend t n body =
  let handles =
    List.init n (fun i ->
        spawn ~name:(Printf.sprintf "%s-%d" name_prefix i) ?backend t (body i))
  in
  let first_error = ref None in
  List.iter
    (fun h ->
      try join h
      with e -> if !first_error = None then first_error := Some e)
    handles;
  match !first_error with None -> () | Some e -> raise e
