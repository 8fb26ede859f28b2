(* Text codec for drained event streams.

   The format is canonical: for any well-formed input,
   [to_string (of_string s) = s] byte for byte.  That property is what
   makes golden tests on event streams trustworthy — a diff in the
   golden file is a diff in the events, never in the formatting.  To
   keep it, [of_string] is strict: exact token shapes, no leading
   zeros, counts that must match, tids in order. *)

exception Parse_error of string

let magic = "# thinlocks-events v2"

(* v1 dumps predate per-object ordinals: without them the oracle cannot
   order an object's events, so they are refused by name. *)
let v1_magic = "# thinlocks-events v1"

let to_string (d : Sink.drained) =
  let buf = Buffer.create (64 + (Sink.length d * 24)) in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "events %d\n" (Sink.length d));
  List.iter
    (fun (tid, n) -> Buffer.add_string buf (Printf.sprintf "dropped %d %d\n" tid n))
    d.Sink.dropped;
  Sink.iter
    (fun ~seq ~tid ~kind ~arg ~ord ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %s %d %d\n" seq tid (Event.kind_name kind) arg ord))
    d;
  Buffer.contents buf

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

(* Canonical decimal: the exact bytes Printf "%d" would produce —
   optional '-', no leading zeros (except "0" itself), no junk. *)
let int_of_token line tok =
  let bad () = fail "line %d: bad integer %S" line tok in
  let len = String.length tok in
  if len = 0 then bad ();
  let start = if tok.[0] = '-' then 1 else 0 in
  if len = start then bad ();
  for i = start to len - 1 do
    match tok.[i] with '0' .. '9' -> () | _ -> bad ()
  done;
  if len - start > 1 && tok.[start] = '0' then bad ();
  if start = 1 && tok.[1] = '0' then bad ();
  match int_of_string_opt tok with Some n -> n | None -> bad ()

let split_fields s = String.split_on_char ' ' s

let of_string s =
  let lines = String.split_on_char '\n' s in
  let lines =
    (* canonical output ends in '\n': exactly one trailing empty chunk *)
    match List.rev lines with
    | "" :: rev -> List.rev rev
    | _ -> fail "missing trailing newline"
  in
  let lineno = ref 0 in
  let next = ref lines in
  let take () =
    incr lineno;
    match !next with
    | [] -> fail "unexpected end of input at line %d" !lineno
    | l :: rest ->
        next := rest;
        l
  in
  (match take () with
  | l when l = magic -> ()
  | l when l = v1_magic ->
      fail "line 1: a version 1 dump (no per-object ordinals); this build reads %S" magic
  | _ -> fail "line 1: expected %S" magic);
  let count =
    match split_fields (take ()) with
    | [ "events"; n ] ->
        let n = int_of_token !lineno n in
        if n < 0 then fail "line %d: negative event count" !lineno;
        n
    | _ -> fail "line %d: expected \"events <count>\"" !lineno
  in
  let dropped = ref [] in
  let rec parse_dropped last_tid =
    match !next with
    | l :: rest when String.length l >= 8 && String.sub l 0 8 = "dropped " -> (
        incr lineno;
        next := rest;
        match split_fields l with
        | [ "dropped"; tid; n ] ->
            let tid = int_of_token !lineno tid in
            let n = int_of_token !lineno n in
            if tid <= last_tid then fail "line %d: dropped tids out of order" !lineno;
            if n <= 0 then fail "line %d: non-positive drop count" !lineno;
            dropped := (tid, n) :: !dropped;
            parse_dropped tid
        | _ -> fail "line %d: expected \"dropped <tid> <count>\"" !lineno)
    | _ -> ()
  in
  parse_dropped (-1);
  (* at most one event per remaining line: a count past that fails
     at the first missing line, before any write past the columns *)
  let cap = min count (List.length !next) in
  let events = Array.make cap 0 and args = Array.make cap 0 in
  let ords = Array.make cap 0 and seqs = Array.make cap 0 in
  for i = 0 to count - 1 do
    match split_fields (take ()) with
    | [ seq; tid; name; arg; ord ] ->
        let seq = int_of_token !lineno seq in
        let tid = int_of_token !lineno tid in
        let arg = int_of_token !lineno arg in
        let ord = int_of_token !lineno ord in
        (* args may be negative (they round-trip), but a negative
           seq, tid or ordinal is never emitted by any sink — reject
           rather than parse something [to_string] would reproduce
           yet no drain could have produced. *)
        if seq < 0 then fail "line %d: negative seq" !lineno;
        if tid < 0 then fail "line %d: negative tid" !lineno;
        if tid > Sink.max_stream_tid then fail "line %d: tid %d too wide" !lineno tid;
        if ord < 0 then fail "line %d: negative ordinal" !lineno;
        let kind =
          match Event.kind_of_name name with
          | Some k -> k
          | None -> fail "line %d: unknown event kind %S" !lineno name
        in
        events.(i) <- Event.kind_to_int kind lor (tid lsl Event.kind_bits);
        args.(i) <- arg;
        ords.(i) <- ord;
        seqs.(i) <- seq
    | _ -> fail "line %d: expected \"<seq> <tid> <kind> <arg> <ord>\"" !lineno
  done;
  (match !next with
  | [] -> ()
  | _ -> fail "line %d: trailing data after %d events" (!lineno + 1) count);
  Sink.of_columns ~events ~args ~ords ~seqs ~dropped:(List.rev !dropped)
