type 'a t = 'a Stdlib.Atomic.t

type counts = { get : int; set : int; exchange : int; cas : int; fetch_and_add : int }

type _ Effect.t += Access : unit Effect.t

let scheduled = ref false
let writes = ref 0

(* One domain runs the shimmed code at a time — the explorer's, or a
   solo counting run — so plain counters suffice. *)
let n_get = ref 0
let n_set = ref 0
let n_exchange = ref 0
let n_cas = ref 0
let n_fetch_and_add = ref 0

let[@inline] access n =
  incr n;
  if !scheduled then Effect.perform Access

let make = Stdlib.Atomic.make

let get a =
  access n_get;
  Stdlib.Atomic.get a

let set a v =
  access n_set;
  incr writes;
  Stdlib.Atomic.set a v

let exchange a v =
  access n_exchange;
  incr writes;
  Stdlib.Atomic.exchange a v

let compare_and_set a seen v =
  access n_cas;
  let ok = Stdlib.Atomic.compare_and_set a seen v in
  if ok then incr writes;
  ok

let fetch_and_add a d =
  access n_fetch_and_add;
  incr writes;
  Stdlib.Atomic.fetch_and_add a d

let incr a = ignore (fetch_and_add a 1)
let decr a = ignore (fetch_and_add a (-1))

let total c = c.get + c.set + c.exchange + c.cas + c.fetch_and_add

let counted f =
  let get = !n_get and set = !n_set and exchange = !n_exchange and cas = !n_cas in
  let fetch_and_add = !n_fetch_and_add in
  f ();
  {
    get = !n_get - get;
    set = !n_set - set;
    exchange = !n_exchange - exchange;
    cas = !n_cas - cas;
    fetch_and_add = !n_fetch_and_add - fetch_and_add;
  }

let pp_counts ppf c =
  match
    List.filter_map
      (fun (n, name) -> if n = 0 then None else Some (Printf.sprintf "%d %s" n name))
      [
        (c.get, "get");
        (c.set, "set");
        (c.exchange, "exchange");
        (c.cas, "CAS");
        (c.fetch_and_add, "fetch_and_add");
      ]
  with
  | [] -> Format.pp_print_string ppf "none"
  | parts -> Format.pp_print_string ppf (String.concat " + " parts)
