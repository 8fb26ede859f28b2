(* Compact binary codec for drained event streams.

   Layout (after a printable magic line so [file]/[head] still say what
   the blob is, and so auto-detection is one prefix compare):

     "# thinlocks-events bin v2\n"
     uvarint  event count
     uvarint  drop-entry count
     per drop entry:  uvarint tid   uvarint count      (tids ascending,
                                                        count >= 1)
     per event:       uvarint seq delta                (first event: the
                      u8      kind                      seq itself; later
                      uvarint tid                       ones: seq - prev,
                      svarint arg (zigzag)              which must be >= 1)
                      uvarint ord

   Varints are LEB128: 7 payload bits per byte, high bit = continue,
   at most 9 bytes (63-bit ints).  Signed args are zigzag-mapped first
   so small negatives stay small.  A typical event is 4-6 bytes against
   ~24 of text.

   Like the text codec, the format is canonical —
   [to_bytes (of_bytes s) = s] — which [of_bytes] buys by being strict:
   minimal varints only, kind bytes in range, drop tids ascending,
   seq deltas positive, counts that match, no trailing bytes. *)

exception Parse_error = Codec.Parse_error

let magic = "# thinlocks-events bin v2\n"

(* Every version's magic starts with this; a v1 blob (no ordinals) is
   recognised as binary and refused by name. *)
let family = "# thinlocks-events bin "
let v1_magic = "# thinlocks-events bin v1\n"

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

(* --- varints ------------------------------------------------------ *)

(* [v] is treated as an unsigned 63-bit pattern: [lsr] is logical, so
   the loop terminates even for patterns with the top bit set (zigzagged
   negatives). *)
let add_uvarint buf v =
  let v = ref v in
  while !v < 0 || !v >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let read_uvarint s pos =
  let len = String.length s in
  let rec go acc shift n =
    if !pos >= len then fail "offset %d: truncated varint" !pos;
    let b = Char.code s.[!pos] in
    incr pos;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then begin
      if n + 1 >= 9 then fail "offset %d: varint longer than 9 bytes" !pos;
      go acc (shift + 7) (n + 1)
    end
    else begin
      if n > 0 && b = 0 then fail "offset %d: non-minimal varint" !pos;
      acc
    end
  in
  go 0 0 0

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))
let add_svarint buf v = add_uvarint buf (zigzag v)
let read_svarint s pos = unzigzag (read_uvarint s pos)

(* --- encode ------------------------------------------------------- *)

let to_bytes (d : Sink.drained) =
  let buf = Buffer.create (String.length magic + 16 + (Sink.length d * 6)) in
  Buffer.add_string buf magic;
  add_uvarint buf (Sink.length d);
  add_uvarint buf (List.length d.Sink.dropped);
  ignore
    (List.fold_left
       (fun last (tid, n) ->
         if tid <= last then invalid_arg "Codec_bin.to_bytes: dropped tids out of order";
         if n <= 0 then invalid_arg "Codec_bin.to_bytes: non-positive drop count";
         add_uvarint buf tid;
         add_uvarint buf n;
         tid)
       (-1) d.Sink.dropped);
  let prev = ref (-1) in
  Sink.iter
    (fun ~seq ~tid ~kind ~arg ~ord ->
      (* delta coding needs strictly increasing seqs — true of every
         drain, and of anything the strict parsers accept *)
      if seq <= !prev then invalid_arg "Codec_bin.to_bytes: seqs not strictly increasing";
      add_uvarint buf (if !prev < 0 then seq else seq - !prev);
      prev := seq;
      Buffer.add_char buf (Char.chr (Event.kind_to_int kind));
      if tid < 0 then invalid_arg "Codec_bin.to_bytes: negative tid";
      add_uvarint buf tid;
      add_svarint buf arg;
      if ord < 0 then invalid_arg "Codec_bin.to_bytes: negative ordinal";
      add_uvarint buf ord)
    d;
  Buffer.contents buf

(* --- decode ------------------------------------------------------- *)

let of_bytes s =
  let mlen = String.length magic in
  let has m = String.length s >= String.length m && String.sub s 0 (String.length m) = m in
  if has v1_magic then
    fail "a binary version 1 dump (no per-object ordinals); this build reads %S"
      (String.trim magic);
  if not (has magic) then fail "bad magic (expected %S)" (String.trim magic);
  let pos = ref mlen in
  let count = read_uvarint s pos in
  if count < 0 then fail "event count overflows";
  let ndrops = read_uvarint s pos in
  if ndrops < 0 then fail "drop count overflows";
  let dropped = ref [] in
  let last_tid = ref (-1) in
  for _ = 1 to ndrops do
    let tid = read_uvarint s pos in
    let n = read_uvarint s pos in
    if tid <= !last_tid then fail "offset %d: dropped tids out of order" !pos;
    if n <= 0 then fail "offset %d: non-positive drop count" !pos;
    last_tid := tid;
    dropped := (tid, n) :: !dropped
  done;
  (* every event takes at least 5 bytes: a count past what is left
     fails on the first truncated event, before any write past the
     columns *)
  let cap = min count ((String.length s - !pos) / 5) in
  let events = Array.make cap 0 and args = Array.make cap 0 in
  let ords = Array.make cap 0 and seqs = Array.make cap 0 in
  let prev = ref (-1) in
  for i = 0 to count - 1 do
    let delta = read_uvarint s pos in
    let seq =
      if !prev < 0 then delta
      else begin
        if delta < 1 then fail "offset %d: zero seq delta" !pos;
        !prev + delta
      end
    in
    if seq < 0 then fail "offset %d: seq overflow" !pos;
    prev := seq;
    if !pos >= String.length s then fail "offset %d: truncated event" !pos;
    let kb = Char.code s.[!pos] in
    incr pos;
    if kb >= Event.n_kinds then fail "offset %d: unknown kind byte %d" !pos kb;
    let tid = read_uvarint s pos in
    if tid > Sink.max_stream_tid || tid < -Sink.max_stream_tid - 1 then
      fail "offset %d: tid %d too wide" !pos tid;
    let arg = read_svarint s pos in
    let ord = read_uvarint s pos in
    if ord < 0 then fail "offset %d: ordinal overflows" !pos;
    events.(i) <- kb lor (tid lsl Event.kind_bits);
    args.(i) <- arg;
    ords.(i) <- ord;
    seqs.(i) <- seq
  done;
  if !pos <> String.length s then
    fail "offset %d: %d trailing bytes" !pos (String.length s - !pos);
  Sink.of_columns ~events ~args ~ords ~seqs ~dropped:(List.rev !dropped)

(* --- auto-detection ----------------------------------------------- *)

let looks_binary s =
  let flen = String.length family in
  String.length s >= flen && String.sub s 0 flen = family

let of_string_auto s =
  if looks_binary s then of_bytes s else Codec.of_string s
