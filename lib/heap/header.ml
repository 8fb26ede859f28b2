let hdr_width = 8
let count_offset = 8
let count_width = 8
let tid_offset = 16
let tid_width = 15
let shape_bit = 31
let shape_mask = 1 lsl shape_bit
let lock_field_mask = Tl_util.Bits.field_mask ~offset:hdr_width ~width:24
let monitor_index_width = 23
let monitor_slot_width = 18
let monitor_generation_width = monitor_index_width - monitor_slot_width
let max_thin_count = (1 lsl count_width) - 1
let max_monitor_index = (1 lsl monitor_index_width) - 1
let max_monitor_slot = (1 lsl monitor_slot_width) - 1
let max_monitor_generation = (1 lsl monitor_generation_width) - 1

let hdr_mask = Tl_util.Bits.mask hdr_width
let hdr_bits word = word land hdr_mask

let thin_word ~hdr ~shifted_tid ~count =
  hdr land hdr_mask lor shifted_tid lor (count lsl count_offset)

let inflated_word ~hdr ~monitor_index =
  hdr land hdr_mask lor shape_mask lor (monitor_index lsl count_offset)

let is_inflated word = word land shape_mask <> 0
let is_thin_locked word = (not (is_inflated word)) && word land lock_field_mask <> 0
let is_unlocked word = word land lock_field_mask = 0

let thin_owner word = Tl_util.Bits.extract ~offset:tid_offset ~width:tid_width word
let thin_count word = Tl_util.Bits.extract ~offset:count_offset ~width:count_width word

let monitor_index word =
  Tl_util.Bits.extract ~offset:count_offset ~width:monitor_index_width word

let monitor_slot word = Tl_util.Bits.extract ~offset:count_offset ~width:monitor_slot_width word

let monitor_generation word =
  Tl_util.Bits.extract
    ~offset:(count_offset + monitor_slot_width)
    ~width:monitor_generation_width word

(* Deflation-in-progress ("flat lock contention"-style) bit, one above
   the 32-bit word of Fig. 1.  Tasuki locks borrow their flc bit from an
   adjacent header word; on this OCaml model of the header the 63-bit
   native int gives us the adjacent bit directly.  The bit is only ever
   set on an {e inflated} word, by a deflater that has won the handshake
   CAS, so none of the thin-path equality/XOR tests below ever see it. *)
let deflating_bit = 32
let deflating_mask = 1 lsl deflating_bit
let is_deflating word = word land deflating_mask <> 0
let set_deflating word = word lor deflating_mask

let nested_limit = max_thin_count lsl count_offset

let nested_limit_for ~count_width =
  if count_width < 1 || count_width > 8 then invalid_arg "Header.nested_limit_for";
  ((1 lsl count_width) - 1) lsl count_offset

let can_lock_nested ~word ~shifted_tid = word lxor shifted_tid < nested_limit

let count_increment = 1 lsl count_offset

let describe word =
  if is_inflated word then
    let suffix = if is_deflating word then " deflating" else "" in
    if monitor_generation word = 0 then
      Printf.sprintf "inflated(monitor=%d%s)" (monitor_index word) suffix
    else
      Printf.sprintf "inflated(monitor=%d gen=%d%s)" (monitor_slot word)
        (monitor_generation word) suffix
  else if is_unlocked word then "unlocked"
  else
    Printf.sprintf "thin(owner=%d, locks=%d)" (thin_owner word) (thin_count word + 1)
