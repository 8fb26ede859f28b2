(* A parker is a record of closures so the blocking substrate is
   pluggable: the OS implementation below blocks the calling thread on
   a mutex/condition pair, while the fiber runtime (lib/fiber) builds
   parkers whose [park] captures the fiber's continuation and whose
   [unpark] reschedules it on any domain.  Callers — Fatlock queues,
   MCS, the schemes' slow paths — go through the dispatch functions and
   never see which world they are running in. *)

type t = {
  park : unit -> unit;
  park_timeout : seconds:float -> bool;
  unpark : unit -> unit;
  has_permit : unit -> bool;
  yield : unit -> unit;
  cooperative : bool;
}

(* A parker built here belongs to a fiber, which shares its carrier
   domain with every other fiber queued on it. *)
let make ~park ~park_timeout ~unpark ~has_permit ~yield =
  { park; park_timeout; unpark; has_permit; yield; cooperative = true }

let park t = t.park ()
let park_timeout t ~seconds = t.park_timeout ~seconds
let unpark t = t.unpark ()
let has_permit t = t.has_permit ()
let yield t = t.yield ()
let cooperative t = t.cooperative

(* ------------------------------------------------------------------ *)
(* OS-thread implementation.                                          *)
(* ------------------------------------------------------------------ *)

type os = { mutex : Mutex.t; cond : Condition.t; mutable permit : bool }

let os_park o =
  Mutex.lock o.mutex;
  while not o.permit do
    Condition.wait o.cond o.mutex
  done;
  o.permit <- false;
  Mutex.unlock o.mutex

let os_try_consume o =
  Mutex.lock o.mutex;
  let p = o.permit in
  if p then o.permit <- false;
  Mutex.unlock o.mutex;
  p

(* The stdlib [Condition] has no timed wait, so the timed park sleeps
   in slices between permit checks.  The deadline is computed once and
   every slice is clamped to the time remaining, so the wait never
   overshoots the deadline by more than one [Unix.sleepf] granularity:
   a 20 µs timeout sleeps ~20 µs once rather than a full 100 µs poll
   quantum.  Slices start short (to catch early unparks) and double to
   a cap, which bounds unpark-to-wakeup latency at [max_slice]. *)
let min_slice = 1e-5
let max_slice = 2e-4

let os_park_timeout o seconds =
  if os_try_consume o then true
  else begin
    let deadline = Unix.gettimeofday () +. seconds in
    let rec wait slice =
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then os_try_consume o (* final check at the deadline *)
      else begin
        Unix.sleepf (if remaining < slice then remaining else slice);
        if os_try_consume o then true else wait (Float.min max_slice (slice *. 2.0))
      end
    in
    wait min_slice
  end

let os_unpark o =
  Mutex.lock o.mutex;
  if not o.permit then begin
    o.permit <- true;
    Condition.signal o.cond
  end;
  Mutex.unlock o.mutex

let os_has_permit o =
  Mutex.lock o.mutex;
  let p = o.permit in
  Mutex.unlock o.mutex;
  p

let create () =
  let o = { mutex = Mutex.create (); cond = Condition.create (); permit = false } in
  {
    park = (fun () -> os_park o);
    park_timeout = (fun ~seconds -> os_park_timeout o seconds);
    unpark = (fun () -> os_unpark o);
    has_permit = (fun () -> os_has_permit o);
    yield = Thread.yield;
    cooperative = false;
  }
