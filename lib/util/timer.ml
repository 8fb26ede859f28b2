let now () = Unix.gettimeofday ()

(* CLOCK_MONOTONIC via bechamel's C stub.  [Unix.gettimeofday] has
   microsecond granularity, so sub-µs latencies quantize to 0 and the
   storm percentiles floor out; integer nanoseconds don't. *)
let now_ns () = Monotonic_clock.now ()

let elapsed_ns ~since = Int64.sub (Monotonic_clock.now ()) since

let time f =
  let t0 = now () in
  let result = f () in
  let t1 = now () in
  (result, t1 -. t0)

let median_of_runs ?(runs = 5) f =
  if runs <= 0 then invalid_arg "Timer.median_of_runs";
  let samples = Array.init runs (fun _ -> snd (time f)) in
  Stats.median samples

let seconds_to_string s =
  let abs = Float.abs s in
  if abs < 1e-6 then Printf.sprintf "%.0fns" (s *. 1e9)
  else if abs < 1e-3 then Printf.sprintf "%.2fus" (s *. 1e6)
  else if abs < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.3fs" s

let pp_seconds ppf s = Format.pp_print_string ppf (seconds_to_string s)
