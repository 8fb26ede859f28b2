type summary = {
  count : int;
  mean : float;
  median : float;
  stddev : float;
  min : float;
  max : float;
  p90 : float;
}

let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty sample")

let mean xs =
  check_nonempty "mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let check_p name p =
  if p < 0.0 || p > 100.0 then invalid_arg ("Stats." ^ name ^ ": p out of range")

(* Linear interpolation between the two samples ranked around [p]% of
   [n] sorted samples, read through [get]. *)
let[@inline] interpolate n get p =
  if n = 1 then get 0
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.trunc rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    let y = get lo in
    y +. (frac *. (get hi -. y))

let percentile_sorted ys p =
  check_nonempty "percentile_sorted" ys;
  check_p "percentile_sorted" p;
  interpolate (Array.length ys) (Array.unsafe_get ys) p

let percentile_sorted_ints ys p =
  if Array.length ys = 0 then invalid_arg "Stats.percentile_sorted_ints: empty sample";
  check_p "percentile_sorted_ints" p;
  interpolate (Array.length ys) (fun i -> float_of_int (Array.unsafe_get ys i)) p

let percentile xs p =
  check_nonempty "percentile" xs;
  check_p "percentile" p;
  percentile_sorted (sorted_copy xs) p

(* LSD radix sort, [radix_bits] per pass, ping-ponging between [a] and
   one scratch array.  Passes stop at the largest value's top digit, so
   values below 2^33 take at most three. *)
let radix_bits = 11
let radix_mask = (1 lsl radix_bits) - 1

let sort_nonneg_ints a =
  let n = Array.length a in
  let top = ref 0 in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get a i in
    if x < 0 then invalid_arg "Stats.sort_nonneg_ints: negative value";
    if x > !top then top := x
  done;
  let counts = Array.make (radix_mask + 1) 0 in
  let src = ref a and dst = ref (Array.make n 0) in
  let shift = ref 0 in
  while !top lsr !shift > 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill counts 0 (radix_mask + 1) 0;
    for i = 0 to n - 1 do
      let b = (Array.unsafe_get s i lsr sh) land radix_mask in
      Array.unsafe_set counts b (Array.unsafe_get counts b + 1)
    done;
    (* counts become each digit's first output position *)
    let pos = ref 0 in
    for b = 0 to radix_mask do
      let c = Array.unsafe_get counts b in
      Array.unsafe_set counts b !pos;
      pos := !pos + c
    done;
    for i = 0 to n - 1 do
      let x = Array.unsafe_get s i in
      let b = (x lsr sh) land radix_mask in
      let p = Array.unsafe_get counts b in
      Array.unsafe_set d p x;
      Array.unsafe_set counts b (p + 1)
    done;
    src := d;
    dst := s;
    shift := sh + radix_bits
  done;
  if !src != a then Array.blit !src 0 a 0 n

let median xs = percentile xs 50.0

let stddev xs =
  check_nonempty "stddev" xs;
  let n = Array.length xs in
  if n = 1 then 0.0
  else
    let m = mean xs in
    let sq = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (sq /. float_of_int (n - 1))

let summary xs =
  check_nonempty "summary" xs;
  let ys = sorted_copy xs in
  let n = Array.length ys in
  {
    count = n;
    mean = mean xs;
    median = percentile_sorted ys 50.0;
    stddev = stddev xs;
    min = ys.(0);
    max = ys.(n - 1);
    p90 = percentile_sorted ys 90.0;
  }

module Histogram = struct
  type t = { mutable buckets : int array; mutable total : int }

  let create ?(initial_buckets = 16) () =
    { buckets = Array.make (max 1 initial_buckets) 0; total = 0 }

  let ensure t v =
    let n = Array.length t.buckets in
    if v >= n then begin
      let n' = max (v + 1) (2 * n) in
      let bigger = Array.make n' 0 in
      Array.blit t.buckets 0 bigger 0 n;
      t.buckets <- bigger
    end

  let add t v =
    if v < 0 then invalid_arg "Histogram.add: negative value";
    ensure t v;
    t.buckets.(v) <- t.buckets.(v) + 1;
    t.total <- t.total + 1

  let count t v = if v < 0 || v >= Array.length t.buckets then 0 else t.buckets.(v)
  let total t = t.total

  let max_value t =
    let rec loop i = if i < 0 then -1 else if t.buckets.(i) > 0 then i else loop (i - 1) in
    loop (Array.length t.buckets - 1)

  let fraction t v =
    if t.total = 0 then 0.0 else float_of_int (count t v) /. float_of_int t.total

  let fraction_at_least t v =
    if t.total = 0 then 0.0
    else begin
      let acc = ref 0 in
      for i = max 0 v to Array.length t.buckets - 1 do
        acc := !acc + t.buckets.(i)
      done;
      float_of_int !acc /. float_of_int t.total
    end

  let merge_into ~src ~dst =
    Array.iteri (fun v c -> if c > 0 then begin
      ensure dst v;
      dst.buckets.(v) <- dst.buckets.(v) + c;
      dst.total <- dst.total + c
    end) src.buckets

  let reset t =
    Array.fill t.buckets 0 (Array.length t.buckets) 0;
    t.total <- 0

  let to_assoc t =
    let acc = ref [] in
    for i = Array.length t.buckets - 1 downto 0 do
      if t.buckets.(i) > 0 then acc := (i, t.buckets.(i)) :: !acc
    done;
    !acc
end
