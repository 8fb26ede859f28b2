(* Each live monitor is registered with a back-reference to its
   object's lock word (just an [int Atomic.t] — tl_monitor cannot see
   tl_heap's object model and does not need to), which is what lets the
   lifecycle reaper walk the census and run the deflation handshake
   without a handle → object map on the side. *)
type entry = { fat : Fatlock.t; lockword : int Atomic.t }
type t = entry Index_table.t

(* The 23-bit monitor field of an inflated lock word splits into an
   18-bit slot and a 5-bit generation; Tl_heap.Header mirrors this
   split (a test asserts they agree — tl_monitor cannot depend on
   tl_heap). *)
let slot_width = 18
let generation_width = 5
let max_slot = (1 lsl slot_width) - 1

exception Stale = Index_table.Stale

let create ?shards () = Index_table.create ~max_index:max_slot ~generation_width ?shards ()
let allocate ?shard_hint t ~lockword fat = Index_table.allocate ?shard_hint t { fat; lockword }
let get t handle = (Index_table.get t handle).fat
let find t handle = Option.map (fun e -> e.fat) (Index_table.find t handle)
let iter_live t f = Index_table.iter_live t f
let free t handle = Index_table.free t handle
let allocated t = Index_table.allocated t
let live t = Index_table.live t
let reuses t = Index_table.reuses t
let frees t = Index_table.frees t
let shard_count t = Index_table.shard_count t
let shard_of_handle t handle = Index_table.shard_of_handle t handle
