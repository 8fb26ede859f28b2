type t = { next_id : int Atomic.t; allocated : int Atomic.t }

let create () = { next_id = Atomic.make 1; allocated = Atomic.make 0 }

let alloc ?(class_id = 0) t =
  let id = Atomic.fetch_and_add t.next_id 1 in
  ignore (Atomic.fetch_and_add t.allocated 1);
  Obj_model.unsafe_create ~id ~class_id

let alloc_many ?(class_id = 0) ?(shards = 1) t n =
  if shards < 1 then invalid_arg "Heap.alloc_many: shards";
  let base = Atomic.fetch_and_add t.next_id n in
  ignore (Atomic.fetch_and_add t.allocated n);
  let obj i = Obj_model.unsafe_create ~id:(base + i) ~class_id in
  if n = 0 then [||]
  else begin
    let objs = Array.make n (obj 0) in
    for shard = 0 to shards - 1 do
      (* index 0 already holds its object *)
      let i = ref (if shard = 0 then shards else shard) in
      while !i < n do
        objs.(!i) <- obj !i;
        i := !i + shards
      done
    done;
    objs
  end

let objects_allocated t = Atomic.get t.allocated
let reset_counters t = Atomic.set t.allocated 0
