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

exception Type_error of string

let type_name = function
  | Null -> "null"
  | Int _ -> "int"
  | Bool _ -> "boolean"
  | Str _ -> "String"
  | Ref _ -> "object"

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | Str x, Str y -> String.equal x y
  | Ref x, Ref y -> x == y
  | (Null | Int _ | Bool _ | Str _ | Ref _), _ -> false

let to_string = function
  | Null -> "null"
  | Int n -> string_of_int n
  | Bool b -> string_of_bool b
  | Str s -> s
  | Ref obj -> Printf.sprintf "object#%d" (Tl_heap.Obj_model.id obj.hdr)

let type_error expected v =
  raise (Type_error (Printf.sprintf "expected %s, got %s (%s)" expected (type_name v) (to_string v)))

let truthy = function Bool b -> b | v -> type_error "boolean" v
let as_int = function Int n -> n | v -> type_error "int" v
let as_bool = function Bool b -> b | v -> type_error "boolean" v
let as_ref = function Ref r -> r | v -> type_error "object" v
