(** Lock-word layout and bit tricks (paper Fig. 1 and §2.3).

    One header word holds the 24-bit lock field and 8 bits of unrelated
    header data that never change while the object is locked:

    {v
     bit 31        bits 30..16         bits 15..8     bits 7..0
     monitor shape thread index (15b)  count (8b)     other header bits
    v}

    With shape = 0 the field is a {e thin} lock: index 0 means
    unlocked; otherwise the index names the owner and [count] is the
    number of locks {e minus one}.  With shape = 1 the remaining 23
    bits are a handle into the monitor table (Fig. 2) — an 18-bit slot
    plus a 5-bit generation tag that detects slot reuse across the
    deflation extension (the paper itself never recycles slots).

    All functions are pure; the atomic lock word itself lives in
    {!Obj_model.t}. *)

val hdr_width : int
(** 8 — low bits that are not part of the lock field. *)

(** [count_offset] = 8, [count_width] = 8; [tid_offset] = 16 (thread
    indices are stored pre-shifted by this), [tid_width] = 15;
    [shape_bit] = 31, so the lock field covers bits 31..8;
    [monitor_index_width] = 23. *)

val count_offset : int

val count_width : int
val tid_offset : int
val tid_width : int
val shape_bit : int
val monitor_index_width : int

val monitor_slot_width : int
(** 18 — low bits of the 23-bit monitor field naming the table slot.
    Must equal [Tl_monitor.Montable.slot_width] (asserted by tests;
    the two libraries cannot depend on each other). *)

val monitor_generation_width : int
(** 5 — high bits of the monitor field carrying the slot's generation
    tag, so a lock word that survived a deflation/reallocation cycle
    is detectably stale. *)

val max_thin_count : int
(** 255: largest storable count, i.e. 256 recursive locks; the 257th
    lock inflates ("excessive" nesting, §2.3). *)

val max_monitor_index : int
val max_monitor_slot : int
val max_monitor_generation : int

val hdr_bits : int -> int
(** [hdr_bits word] is the 8 low non-lock bits — the "old value" used
    for the acquiring CAS is exactly this (§2.3.1). *)

val thin_word : hdr:int -> shifted_tid:int -> count:int -> int
(** Build a thin-locked word.  [shifted_tid] is the index already
    shifted by {!tid_offset}; [count] is locks-minus-one. *)

val inflated_word : hdr:int -> monitor_index:int -> int
(** Build an inflated word (shape bit set, index in bits 30..8). *)

val is_inflated : int -> bool
val is_thin_locked : int -> bool
(** Thin and owned (shape 0, index non-zero). *)

val is_unlocked : int -> bool
(** Entire lock field zero. *)

val thin_owner : int -> int
(** Thread index of a thin word (0 if unlocked). *)

val thin_count : int -> int

val monitor_index : int -> int
(** The full 23-bit monitor field — the handle passed to the monitor
    table (slot plus generation). *)

val monitor_slot : int -> int
val monitor_generation : int -> int

(** {2 Deflation handshake bit (lifecycle extension)}

    One bit {e above} the 32-bit word of Fig. 1 marks an inflated word
    whose monitor is being deflated by a concurrent deflater — the
    analogue of the Tasuki flc bit, which Onodera & Kawachiya borrow
    from an adjacent header word.  A deflater claims the bit with a CAS
    (arbitrating rival deflaters), decides the monitor's fate under the
    monitor latch, and then either rewrites the word to thin-unlocked or
    clears the bit.  The bit is only ever set on inflated words, so the
    thin-path equality and XOR tests never observe it. *)

val deflating_bit : int
(** 32. *)

val is_deflating : int -> bool
(** Is a deflation handshake in progress on this (inflated) word? *)

val set_deflating : int -> int

val nested_limit : int
(** [255 lsl 8] — the single unsigned immediate the nested-lock check
    compares against (§2.3.3). *)

val nested_limit_for : count_width:int -> int
(** Generalised limit for the count-width ablation: with a [w]-bit
    count the check must fail once the stored count reaches
    [2^w - 1]. *)

val can_lock_nested : word:int -> shifted_tid:int -> bool
(** The paper's one-comparison test: shape = 0, owner = me, count
    incrementable — computed as [(word lxor shifted_tid) < nested_limit]. *)

val count_increment : int
(** 256 — added to the word to bump the nest count (§2.3.3). *)

val describe : int -> string
(** Human-readable rendering of a lock word, for examples and
    debugging. *)
