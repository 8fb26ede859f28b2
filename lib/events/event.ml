(* One lock-lifecycle event.  Kinds are constant constructors so call
   sites can name them without allocating; on the ring an event is two
   machine ints (see [Ring]). *)

type kind =
  | Acquire_fast
  | Acquire_nested
  | Acquire_fat
  | Acquire_fat_queued
  | Release_fast
  | Release_nested
  | Release_fat
  | Inflate_contention
  | Inflate_wait
  | Inflate_overflow
  | Deflate_quiescent
  | Deflate_concurrent
  | Deflate_aborted
  | Contended_begin
  | Contended_end
  | Wait_op
  | Notify_op
  | Notify_all_op
  | Reaper_scan
  | Quiescence
  | Tid_overflow
  | Cjm_monitor_create
  | Cjm_monitor_evaporate
  | Policy_switch

type t = { seq : int; tid : int; kind : kind; arg : int; ord : int }

let all_kinds =
  [
    Acquire_fast; Acquire_nested; Acquire_fat; Acquire_fat_queued; Release_fast;
    Release_nested; Release_fat; Inflate_contention; Inflate_wait; Inflate_overflow;
    Deflate_quiescent; Deflate_concurrent; Deflate_aborted; Contended_begin; Contended_end;
    Wait_op; Notify_op; Notify_all_op; Reaper_scan; Quiescence; Tid_overflow;
    Cjm_monitor_create; Cjm_monitor_evaporate; Policy_switch;
  ]

(* A constant constructor is the immediate int of its declaration
   index, so the identity is the dense numbering — and, as a primitive,
   it costs nothing on the emit path even across modules. *)
external kind_to_int : kind -> int = "%identity"

let n_kinds = List.length all_kinds

(* Wide enough for every kind; rings pack [stamp lsl kind_bits lor kind]
   into one int, so this is part of the on-ring representation. *)
let kind_bits = 5

let carries_object = function
  | Reaper_scan | Quiescence | Tid_overflow | Policy_switch -> false
  | _ -> true

(* Lock-state transitions: taken by whoever holds the right to change
   the object's state, who stamps them with the object's next ordinal.
   The other object kinds observe the state from outside. *)
let holder_stamped = function
  | Contended_begin | Contended_end | Deflate_aborted -> false
  | k -> carries_object k

let fast_path = function
  | Acquire_fast | Acquire_nested | Release_fast | Release_nested -> true
  | _ -> false

let mask_of pred =
  List.fold_left
    (fun m k -> if pred k then m lor (1 lsl kind_to_int k) else m)
    0 all_kinds

let object_kind_mask = mask_of carries_object
let fast_path_kind_mask = mask_of fast_path
let holder_kind_mask = mask_of holder_stamped

let kind_table = Array.of_list all_kinds

let kind_of_int i =
  if i < 0 || i >= Array.length kind_table then invalid_arg "Event.kind_of_int"
  else Array.unsafe_get kind_table i

let kind_name = function
  | Acquire_fast -> "acquire-fast"
  | Acquire_nested -> "acquire-nested"
  | Acquire_fat -> "acquire-fat"
  | Acquire_fat_queued -> "acquire-fat-queued"
  | Release_fast -> "release-fast"
  | Release_nested -> "release-nested"
  | Release_fat -> "release-fat"
  | Inflate_contention -> "inflate-contention"
  | Inflate_wait -> "inflate-wait"
  | Inflate_overflow -> "inflate-overflow"
  | Deflate_quiescent -> "deflate-quiescent"
  | Deflate_concurrent -> "deflate-concurrent"
  | Deflate_aborted -> "deflate-aborted"
  | Contended_begin -> "contended-begin"
  | Contended_end -> "contended-end"
  | Wait_op -> "wait"
  | Notify_op -> "notify"
  | Notify_all_op -> "notify-all"
  | Reaper_scan -> "reaper-scan"
  | Quiescence -> "quiescence"
  | Tid_overflow -> "tid-overflow"
  | Cjm_monitor_create -> "cjm-monitor-create"
  | Cjm_monitor_evaporate -> "cjm-monitor-evaporate"
  | Policy_switch -> "policy-switch"

let kind_of_name =
  let table = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace table (kind_name k) k) all_kinds;
  fun name -> Hashtbl.find_opt table name

let pp ppf t =
  Format.fprintf ppf "%d %d %s %d %d" t.seq t.tid (kind_name t.kind) t.arg t.ord
