(** Runtime values of the mini-JVM.

    Objects carry a [Tl_heap.Obj_model.t] header — the same header
    word the locking schemes operate on — so every `synchronized`
    method and `monitorenter` in interpreted code exercises the real
    lock implementations.  Built-in library objects additionally carry
    native state (a vector's storage, a hash table, ...). *)

type t =
  | Null
  | Int of int
  | Bool of bool
  | Str of string
  | Ref of jobject

and jobject = {
  hdr : Tl_heap.Obj_model.t;
  class_id : int;
  fields : t array;
  mutable native : native_state;
}

and native_state =
  | No_native
  | Vector_state of vector_storage
  | Hashtable_state of (t, t) Hashtbl.t
  | Bitset_state of { mutable bits : Bytes.t }
  | Stringbuffer_state of Buffer.t
  | Random_state of Tl_util.Prng.t

and vector_storage = { mutable elements : t array; mutable size : int }

val type_name : t -> string

val equal : t -> t -> bool
(** Structural on [Int]/[Bool]/[Str]/[Null], physical on [Ref] — the
    equality [Hashtable] keys use. *)

val to_string : t -> string
(** Rendering used by [System.print]. *)

val truthy : t -> bool
(** [Bool b] is [b]; anything else is a runtime type error. *)

exception Type_error of string

val as_int : t -> int
val as_bool : t -> bool
val as_ref : t -> jobject
(** All raise {!Type_error} with a descriptive message on mismatch. *)
