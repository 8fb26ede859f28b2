type policy = Busy | Yield | Yield_sleep

type t = { policy : policy; parker : Parker.t option; mutable step : int }

let create ?(policy = Yield_sleep) ?parker () = { policy; parker; step = 0 }

let spin_batch = 32
let yield_steps = 8
let max_sleep = 1e-3

let relax () = Domain.cpu_relax ()

let busy_spin () =
  for _ = 1 to spin_batch do
    relax ()
  done

let yield t = match t.parker with Some p -> Parker.yield p | None -> Thread.yield ()
let cooperative t = match t.parker with Some p -> Parker.cooperative p | None -> false

(* The carrier rule for spin loops: past its first spins, a fiber
   waiter yields on every step, whatever the policy — it never sleeps
   its carrier domain, and never busy-spins it while the holder it
   waits for may be queued behind it.  A waiter that can park instead
   (the fat lock's entry queue, hapax admission) skips the spin on a
   cooperative parker altogether: each yield only requeues it behind
   that holder. *)
let once t =
  let step = t.step in
  t.step <- step + 1;
  if step < 2 then busy_spin ()
  else if cooperative t then yield t
  else
    match t.policy with
    | Busy -> busy_spin ()
    | Yield -> yield t
    | Yield_sleep ->
        if step < 2 + yield_steps then yield t
        else begin
          let exponent = min (step - 2 - yield_steps) 10 in
          Unix.sleepf (Float.min max_sleep (1e-6 *. float_of_int (1 lsl exponent)))
        end

let reset t = t.step <- 0
let steps t = t.step

let bounded t ~budget ready =
  let rec go () =
    if ready () then true
    else if t.step >= budget then false
    else begin
      once t;
      go ()
    end
  in
  go ()
