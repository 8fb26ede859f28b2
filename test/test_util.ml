(* tl_util: bit manipulation, PRNG, statistics, table rendering —
   units plus qcheck properties. *)

module Bits = Tl_util.Bits
module Prng = Tl_util.Prng
module Stats = Tl_util.Stats
module T = Tl_util.Tablefmt

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- bits --- *)

let field_gen =
  QCheck.Gen.(
    let* offset = int_range 0 40 in
    let* width = int_range 1 (62 - offset) in
    let* word = map abs int in
    let* value = map abs int in
    return (offset, width, word, value))

let field_arb = QCheck.make field_gen

let prop_insert_extract =
  QCheck.Test.make ~name:"insert then extract is identity" ~count:1000 field_arb
    (fun (offset, width, word, value) ->
      Bits.extract ~offset ~width (Bits.insert ~offset ~width word value)
      = value land Bits.mask width)

let prop_insert_preserves_rest =
  QCheck.Test.make ~name:"insert leaves other bits alone" ~count:1000 field_arb
    (fun (offset, width, word, value) ->
      let mask = Bits.field_mask ~offset ~width in
      let word' = Bits.insert ~offset ~width word value in
      word land lnot mask = word' land lnot mask)

let prop_set_clear =
  QCheck.Test.make ~name:"set then clear restores" ~count:1000
    QCheck.(pair (int_bound 61) (map abs int))
    (fun (pos, word) ->
      let cleared = Bits.clear_bit pos word in
      Bits.clear_bit pos (Bits.set_bit pos word) = cleared
      && Bits.test_bit pos (Bits.set_bit pos word)
      && not (Bits.test_bit pos cleared))

let test_binary_string () =
  Alcotest.(check string) "render" "00000001_00000000" (Bits.to_binary_string ~width:16 256);
  check_int "popcount" 3 (Bits.popcount 0b10101)

(* --- prng --- *)

let test_prng_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check "same stream" true (Prng.next_int64 a = Prng.next_int64 b)
  done;
  let c = Prng.create 8 in
  check "different seed differs" false
    (List.init 4 (fun _ -> Prng.next_int64 a) = List.init 4 (fun _ -> Prng.next_int64 c))

let prop_int_bounds =
  QCheck.Test.make ~name:"int stays in bounds" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let p = Prng.create seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let prop_categorical_support =
  QCheck.Test.make ~name:"categorical picks a positive-weight index" ~count:500
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 8) (float_range 0.0 10.0)))
    (fun (seed, weights) ->
      QCheck.assume (List.exists (fun w -> w > 0.0) weights);
      let p = Prng.create seed in
      let arr = Array.of_list weights in
      let i = Prng.categorical p arr in
      i >= 0 && i < Array.length arr)

let test_geometric_mean () =
  let p = Prng.create 42 in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Prng.geometric p ~p:0.5
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* geometric(0.5) has mean 1 *)
  check "mean near 1" true (mean > 0.9 && mean < 1.1)

let test_shuffle_permutes () =
  let p = Prng.create 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check "is a permutation" true (sorted = Array.init 50 Fun.id);
  check "actually moved something" true (arr <> Array.init 50 Fun.id)

(* --- stats --- *)

let test_summary () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  let s = Stats.summary xs in
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Stats.median;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 5.0 (Stats.percentile xs 100.0)

(* Read off an already-sorted array, [percentile_sorted] is
   [percentile] without the copy and sort: equal at every p, on one
   sample, at p0 (the minimum) and p100 (the maximum). *)
let test_percentile_sorted () =
  let eq name a b = Alcotest.(check (float 0.0)) name a b in
  let xs = [| 1.0; 2.0; 2.0; 3.5; 10.0; 10.0; 40.0 |] in
  List.iter
    (fun p ->
      let name = Printf.sprintf "p%g" p in
      eq name (Stats.percentile xs p) (Stats.percentile_sorted xs p);
      eq (name ^ " ints")
        (Stats.percentile (Array.map float_of_int [| 1; 2; 2; 3; 10; 10; 40 |]) p)
        (Stats.percentile_sorted_ints [| 1; 2; 2; 3; 10; 10; 40 |] p))
    [ 0.0; 12.5; 50.0; 90.0; 99.0; 99.9; 100.0 ];
  eq "p0 = min" 1.0 (Stats.percentile_sorted xs 0.0);
  eq "p100 = max" 40.0 (Stats.percentile_sorted xs 100.0);
  List.iter
    (fun p ->
      eq (Printf.sprintf "one sample p%g" p) (Stats.percentile [| 7.0 |] p)
        (Stats.percentile_sorted [| 7.0 |] p);
      eq (Printf.sprintf "one int sample p%g" p) 7.0 (Stats.percentile_sorted_ints [| 7 |] p))
    [ 0.0; 50.0; 100.0 ];
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile_sorted: empty sample")
    (fun () -> ignore (Stats.percentile_sorted [||] 50.0))

let prop_radix_sort =
  QCheck.Test.make ~name:"radix sort agrees with Array.sort" ~count:500
    QCheck.(
      list
        (oneof
           [ int_range 0 3; int_range 0 5000; int_range 0 max_int; always max_int; always (1 lsl 33) ]))
    (fun xs ->
      let a = Array.of_list xs in
      let want = Array.copy a in
      Array.sort Int.compare want;
      Stats.sort_nonneg_ints a;
      a = want)

let test_radix_sort_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Stats.sort_nonneg_ints: negative value")
    (fun () -> Stats.sort_nonneg_ints [| 3; -1; 2 |])

let prop_median_bounds =
  QCheck.Test.make ~name:"median within min/max" ~count:500
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let arr = Array.of_list xs in
      let m = Stats.median arr in
      let lo = Array.fold_left Float.min Float.infinity arr in
      let hi = Array.fold_left Float.max Float.neg_infinity arr in
      m >= lo && m <= hi)

let test_histogram () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 1; 1; 2; 5; 1 ];
  check_int "count 1" 3 (Stats.Histogram.count h 1);
  check_int "total" 5 (Stats.Histogram.total h);
  check_int "max value" 5 (Stats.Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "fraction" 0.6 (Stats.Histogram.fraction h 1);
  Alcotest.(check (float 1e-9)) "at least 2" 0.4 (Stats.Histogram.fraction_at_least h 2);
  let h2 = Stats.Histogram.create () in
  Stats.Histogram.add h2 1;
  Stats.Histogram.merge_into ~src:h ~dst:h2;
  check_int "merged" 6 (Stats.Histogram.total h2);
  Alcotest.(check (list (pair int int))) "assoc" [ (1, 3); (2, 1); (5, 1) ]
    (Stats.Histogram.to_assoc h)

(* --- tablefmt --- *)

let test_table_render () =
  let s =
    T.render ~header:[ "a"; "bb" ] ~align:[ T.Left; T.Right ]
      [ [ "x"; "1" ]; [ "yyy"; "22" ] ]
  in
  check "contains header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  check_int "line count" 5 (List.length lines);
  (* all non-empty lines same width *)
  let widths =
    List.filter_map
      (fun l -> if String.length l = 0 then None else Some (String.length l))
      lines
  in
  check "aligned columns" true (List.length (List.sort_uniq compare widths) = 1)

let test_bar_chart () =
  let s = T.bar_chart ~width:10 [ ("a", 10.0); ("b", 5.0) ] in
  check "a has full bar" true
    (List.exists
       (fun line -> String.length line > 0 && String.contains line '#')
       (String.split_on_char '\n' s))

let () =
  Alcotest.run "util"
    [
      ( "bits",
        [
          QCheck_alcotest.to_alcotest prop_insert_extract;
          QCheck_alcotest.to_alcotest prop_insert_preserves_rest;
          QCheck_alcotest.to_alcotest prop_set_clear;
          Alcotest.test_case "binary rendering" `Quick test_binary_string;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          QCheck_alcotest.to_alcotest prop_int_bounds;
          QCheck_alcotest.to_alcotest prop_categorical_support;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "percentile of sorted input" `Quick test_percentile_sorted;
          QCheck_alcotest.to_alcotest prop_radix_sort;
          Alcotest.test_case "radix sort rejects negatives" `Quick
            test_radix_sort_rejects_negative;
          QCheck_alcotest.to_alcotest prop_median_bounds;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render alignment" `Quick test_table_render;
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
        ] );
    ]
