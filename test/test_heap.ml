(* tl_heap: the lock-word layout of Fig. 1 — encode/decode round trips
   and, crucially, the equivalence of the paper's one-comparison XOR
   nested-lock test with the naive three-field check, over the whole
   field space (qcheck). *)

module Header = Tl_heap.Header
module Obj_model = Tl_heap.Obj_model
module Heap = Tl_heap.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_constants () =
  check_int "hdr width" 8 Header.hdr_width;
  check_int "count offset" 8 Header.count_offset;
  check_int "tid offset" 16 Header.tid_offset;
  check_int "tid width" 15 Header.tid_width;
  check_int "shape bit" 31 Header.shape_bit;
  check_int "max count" 255 Header.max_thin_count;
  check_int "max monitor index" ((1 lsl 23) - 1) Header.max_monitor_index;
  check_int "monitor slot width" 18 Header.monitor_slot_width;
  check_int "monitor generation width" 5 Header.monitor_generation_width;
  check_int "slot + generation fill the monitor field" Header.monitor_index_width
    (Header.monitor_slot_width + Header.monitor_generation_width);
  check_int "max monitor slot" ((1 lsl 18) - 1) Header.max_monitor_slot;
  check_int "max monitor generation" ((1 lsl 5) - 1) Header.max_monitor_generation;
  check_int "nested limit is 255 << 8" (255 lsl 8) Header.nested_limit;
  check_int "count increment is 256" 256 Header.count_increment

let thin_parts =
  QCheck.Gen.(
    let* hdr = int_range 0 255 in
    let* tid = int_range 1 Header.((1 lsl tid_width) - 1) in
    let* count = int_range 0 Header.max_thin_count in
    return (hdr, tid, count))

let thin_arb = QCheck.make thin_parts

let prop_thin_roundtrip =
  QCheck.Test.make ~name:"thin word round trip" ~count:2000 thin_arb
    (fun (hdr, tid, count) ->
      let word = Header.thin_word ~hdr ~shifted_tid:(tid lsl Header.tid_offset) ~count in
      Header.thin_owner word = tid
      && Header.thin_count word = count
      && Header.hdr_bits word = hdr
      && Header.is_thin_locked word
      && (not (Header.is_inflated word))
      && not (Header.is_unlocked word))

let prop_inflated_roundtrip =
  QCheck.Test.make ~name:"inflated word round trip" ~count:2000
    QCheck.(pair (int_bound 255) (int_range 1 Header.max_monitor_index))
    (fun (hdr, monitor_index) ->
      let word = Header.inflated_word ~hdr ~monitor_index in
      Header.monitor_index word = monitor_index
      && Header.hdr_bits word = hdr
      && Header.is_inflated word
      && not (Header.is_unlocked word))

(* The heart of §2.3.3: one unsigned comparison == three-field check. *)
let prop_xor_trick_equivalence =
  let any_word =
    QCheck.Gen.(
      let* hdr = int_range 0 255 in
      let* inflated = bool in
      if inflated then
        let* monitor_index = int_range 1 Header.max_monitor_index in
        return (Header.inflated_word ~hdr ~monitor_index)
      else
        let* tid = int_range 0 Header.((1 lsl tid_width) - 1) in
        let* count = int_range 0 Header.max_thin_count in
        return (Header.thin_word ~hdr ~shifted_tid:(tid lsl Header.tid_offset) ~count))
  in
  QCheck.Test.make ~name:"XOR test == naive shape/owner/count test" ~count:5000
    QCheck.(
      make
        Gen.(
          let* word = any_word in
          let* me = int_range 1 Header.((1 lsl tid_width) - 1) in
          return (word, me)))
    (fun (word, me) ->
      let xor_says =
        Header.can_lock_nested ~word ~shifted_tid:(me lsl Header.tid_offset)
      in
      let naive_says =
        (not (Header.is_inflated word))
        && Header.thin_owner word = me
        && Header.thin_count word < Header.max_thin_count
      in
      xor_says = naive_says)

let prop_count_increment_is_add =
  QCheck.Test.make ~name:"count bump is word + 256" ~count:2000 thin_arb
    (fun (hdr, tid, count) ->
      QCheck.assume (count < Header.max_thin_count);
      let word = Header.thin_word ~hdr ~shifted_tid:(tid lsl Header.tid_offset) ~count in
      word + Header.count_increment
      = Header.thin_word ~hdr ~shifted_tid:(tid lsl Header.tid_offset) ~count:(count + 1))

let prop_nested_limit_width =
  QCheck.Test.make ~name:"narrow count widths inflate sooner" ~count:500
    QCheck.(pair (int_range 1 8) thin_arb)
    (fun (width, (hdr, tid, count)) ->
      let word = Header.thin_word ~hdr ~shifted_tid:(tid lsl Header.tid_offset) ~count in
      let limit = Header.nested_limit_for ~count_width:width in
      let can = word lxor (tid lsl Header.tid_offset) < limit in
      can = (count < (1 lsl width) - 1))

let test_describe () =
  Alcotest.(check string) "unlocked" "unlocked" (Header.describe 0xAB);
  Alcotest.(check string) "thin" "thin(owner=3, locks=2)"
    (Header.describe (Header.thin_word ~hdr:0 ~shifted_tid:(3 lsl 16) ~count:1));
  Alcotest.(check string) "fat" "inflated(monitor=9)"
    (Header.describe (Header.inflated_word ~hdr:0 ~monitor_index:9));
  (* a recycled-slot handle: slot 9, generation 2 *)
  Alcotest.(check string) "fat with generation" "inflated(monitor=9 gen=2)"
    (Header.describe (Header.inflated_word ~hdr:0 ~monitor_index:(9 lor (2 lsl 18))))

(* Handles split into slot and generation; the split must round-trip
   through an inflated word. *)
let prop_slot_generation_split =
  QCheck.Test.make ~name:"monitor slot/generation split round trip" ~count:2000
    QCheck.(
      triple (int_bound 255)
        (int_range 1 Header.max_monitor_slot)
        (int_bound Header.max_monitor_generation))
    (fun (hdr, slot, generation) ->
      let monitor_index = (generation lsl Header.monitor_slot_width) lor slot in
      let word = Header.inflated_word ~hdr ~monitor_index in
      Header.monitor_slot word = slot
      && Header.monitor_generation word = generation
      && Header.monitor_index word = monitor_index)

let test_heap_alloc () =
  let heap = Heap.create () in
  let a = Heap.alloc ~class_id:0x1FF heap in
  let b = Heap.alloc heap in
  check "distinct ids" true (Obj_model.id a <> Obj_model.id b);
  check_int "allocated" 2 (Heap.objects_allocated heap);
  check_int "hdr bits from class id low byte" 0xFF (Obj_model.hdr_bits a);
  check "fresh object unlocked" true
    (Header.is_unlocked (Atomic.get (Obj_model.lockword a)));
  Heap.reset_counters heap;
  check_int "reset" 0 (Heap.objects_allocated heap)

let test_mark_synced () =
  let heap = Heap.create () in
  let a = Heap.alloc heap in
  check "first mark true" true (Obj_model.mark_synced a);
  check "second mark false" false (Obj_model.mark_synced a)

let test_alloc_many_parallel () =
  (* ids must stay unique under concurrent allocation *)
  let heap = Heap.create () in
  let runtime = Tl_runtime.Runtime.create () in
  let collected = Array.make 4 [] in
  Tl_runtime.Runtime.run_parallel runtime 4 (fun i _env ->
      collected.(i) <-
        Array.to_list (Array.map Obj_model.id (Heap.alloc_many heap 1000)));
  let all = List.concat (Array.to_list collected) in
  check_int "all allocated" 4000 (List.length (List.sort_uniq compare all))

let test_alloc_many_sharded () =
  (* [shards] changes only the allocation order: ids stay consecutive
     in index order, and the census counts every object once *)
  List.iter
    (fun (shards, n) ->
      let heap = Heap.create () in
      ignore (Heap.alloc heap);
      let objs = Heap.alloc_many ~shards heap n in
      check_int "length" n (Array.length objs);
      Array.iteri (fun i o -> check_int "id in index order" (i + 2) (Obj_model.id o)) objs;
      check_int "census" (n + 1) (Heap.objects_allocated heap);
      check_int "next id follows the block" (n + 2) (Obj_model.id (Heap.alloc heap)))
    [ (1, 10); (2, 9); (4, 10); (3, 1); (5, 3); (2, 0) ]

let () =
  Alcotest.run "heap"
    [
      ( "header",
        [
          Alcotest.test_case "layout constants (Fig. 1)" `Quick test_constants;
          QCheck_alcotest.to_alcotest prop_thin_roundtrip;
          QCheck_alcotest.to_alcotest prop_inflated_roundtrip;
          QCheck_alcotest.to_alcotest prop_xor_trick_equivalence;
          QCheck_alcotest.to_alcotest prop_count_increment_is_add;
          QCheck_alcotest.to_alcotest prop_nested_limit_width;
          QCheck_alcotest.to_alcotest prop_slot_generation_split;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
      ( "heap",
        [
          Alcotest.test_case "allocation" `Quick test_heap_alloc;
          Alcotest.test_case "mark synced" `Quick test_mark_synced;
          Alcotest.test_case "parallel allocation unique ids" `Slow
            test_alloc_many_parallel;
          Alcotest.test_case "sharded allocation keeps ids" `Quick test_alloc_many_sharded;
        ] );
    ]
