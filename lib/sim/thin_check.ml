open Tl_runtime
open Tl_heap
module Fatlock = Tl_monitor.Fatlock
module Montable = Tl_monitor.Montable
module Sink = Tl_events.Sink

type t = {
  ctx : Thin.ctx;
  obj : Obj_model.t;
  sections : int Atomic.t;
  mutable expected : int; (* sections the lockers will run *)
  mutable occupant : int; (* thread inside the critical section, 0 if none *)
  mutable breach : string option;
}

let lockword t = Obj_model.lockword t.obj
let obj_id t = Obj_model.id t.obj
let montable t = Thin.montable t.ctx
let sink t = Thin.events t.ctx
let acquire t env = Thin.acquire t.ctx env t.obj
let release t env = Thin.release t.ctx env t.obj
let deflate t = Thin.deflate_obj t.ctx ~cause:`Concurrent t.obj

(* Nest until the count overflows into a monitor, then unwind: the
   object ends inflated, its monitor idle. *)
let inflate_idle t runtime =
  let env = Runtime.register_current runtime ~name:"setup" in
  let rec nest n =
    acquire t env;
    if Header.is_inflated (Thin.lock_word t.obj) then n else nest (n + 1)
  in
  for _ = 1 to nest 1 do
    release t env
  done

let create ?(events = false) ?(inflated = false) runtime =
  let events = if events then Sink.create () else Sink.disabled in
  let t =
    {
      ctx = Thin.create_with ~events runtime;
      obj = Heap.alloc (Heap.create ());
      sections = Atomic.make 0;
      expected = 0;
      occupant = 0;
      breach = None;
    }
  in
  if inflated then inflate_idle t runtime;
  t

let critical_section t env =
  let me = env.Runtime.descriptor.Tid.index in
  if t.occupant <> 0 && t.breach = None then
    t.breach <-
      Some
        (Printf.sprintf "mutual exclusion: threads %d and %d in the critical section"
           t.occupant me);
  t.occupant <- me;
  let n = Atomic.get t.sections in
  Atomic.set t.sections (n + 1);
  if t.occupant = me then t.occupant <- 0

let locker ?(nesting = 1) ?(acquire = acquire) ?(release = release) ~iterations t =
  t.expected <- t.expected + iterations;
  fun env ->
    for _ = 1 to iterations do
      for _ = 1 to nesting do
        acquire t env
      done;
      critical_section t env;
      for _ = 1 to nesting do
        release t env
      done
    done

let deflater t _env = ignore (deflate t)

let released t () =
  let sections = Stdlib.Atomic.get t.sections in
  let word = Stdlib.Atomic.get (lockword t) in
  if sections <> t.expected then
    Some (Printf.sprintf "lost update: %d of %d critical sections counted" sections t.expected)
  else if Header.is_inflated word then
    match Montable.find (montable t) (Header.monitor_index word) with
    | Some fat when Fatlock.owner fat = 0 -> None
    | Some fat -> Some (Printf.sprintf "monitor still owned by thread %d" (Fatlock.owner fat))
    | None -> Some (Printf.sprintf "stale inflated word left behind: %s" (Header.describe word))
  else if Header.is_unlocked word then None
  else Some (Printf.sprintf "lock left held: %s" (Header.describe word))

let world t threads = { Explore.threads; invariant = (fun () -> t.breach); final = released t }

let lockers ?nesting ~threads ~iterations runtime =
  let t = create runtime in
  world t (Array.init threads (fun _ -> locker ?nesting ~iterations t))

let solo_counts () =
  let runtime = Runtime.create () in
  let thin = create runtime and fat = create ~inflated:true runtime in
  let env = Runtime.register_current runtime ~name:"solo" in
  let counted = Atomic.counted in
  let unlocked = counted (fun () -> acquire thin env) in
  let count0 = counted (fun () -> release thin env) in
  acquire thin env;
  let nested = counted (fun () -> acquire thin env) in
  let nested_release = counted (fun () -> release thin env) in
  release thin env;
  [
    ("acquire (unlocked)", unlocked);
    ("release (count 0)", count0);
    ("acquire (nested)", nested);
    ("release (nested)", nested_release);
    ( "lock+unlock via fat monitor",
      counted (fun () ->
          acquire fat env;
          release fat env) );
  ]

let render_counts () =
  let rows =
    List.map
      (fun (name, c) ->
        Format.asprintf "  %-28s %a\n" name Atomic.pp_counts c)
      (solo_counts ())
  in
  String.concat ""
    ("Lock-word accesses per path, counted on the shipped Thin (Atomic.set is a\n\
      full-barrier exchange on OCaml 5.1; the fat monitor's own latch is not counted):\n"
    :: rows)
