open Tl_runtime

(* Packed admission word: [ arrivals | admitted ], 31 bits each on a
   63-bit OCaml int.  Arrivals in the high field so the arrival
   fetch-and-add can never carry into the admitted field; admitted in
   the low field so a grant is [fetch_and_add word 1].  Fields only
   grow; 31 bits bound one engine at ~2e9 contended arrivals, and a
   fresh engine is born with every inflation. *)

let field_bits = 31
let field_mask = (1 lsl field_bits) - 1
let arrival_unit = 1 lsl field_bits
let arrivals_of w = (w lsr field_bits) land field_mask
let admitted_of w = w land field_mask

(* The waiters parked on one ring slot: tickets [slots] apart share a
   slot, each with its own entry, so a collision costs a list cell, not
   a yield-poll.  Immutable cells behind one atomic head: a push or a
   withdrawal is a CAS of the head, and a head that is physically
   unchanged has unchanged contents, so there is no ABA. *)
type waiters = Nil | Waiter of { ticket : int; parker : Parker.t; next : waiters }

type t = {
  word : int Atomic.t;
  mutable claimed : int;
      (* tickets retired into ownership; touched only under the
         embedding lock's latch (and by at most one granted waiter at a
         time), so a plain field suffices *)
  slots : waiters Atomic.t array; (* length is a power of two *)
  spin : int; (* Backoff step budget before an OS-thread waiter parks *)
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* The slot ring spreads parked waiters so that [wake] and a waiter's
   withdrawal walk short lists: 1024 slots keep a 4096-fiber queue at
   four waiters a slot.  Deeper queues only lengthen the lists.  Each
   slot is one atomic, and engines are per-inflation and transient. *)
(* The spin budget is deliberately long compared with the parker
   backend's spin-before-park: an OS-thread waiter spins on one
   immutable word (no latch, no cache-line fight), which is exactly the
   property value-based admission buys, so grants overwhelmingly land
   mid-spin and the park/unpark syscall pair never happens.  A fiber
   waiter does not spin at all (see [await]). *)
let create ?(slots = 1024) ?(spin = 96) () =
  if slots < 1 || spin < 0 then invalid_arg "Hapax.create";
  {
    word = Atomic.make 0;
    claimed = 0;
    slots = Array.init (next_pow2 slots) (fun _ -> Atomic.make Nil);
    spin;
  }

(* --- admission --- *)

let arrive t = arrivals_of (Atomic.fetch_and_add t.word arrival_unit)
let granted t ticket = admitted_of (Atomic.get t.word) > ticket

let admit t =
  let w = Atomic.get t.word in
  if arrivals_of w > admitted_of w then begin
    (* Exclusive caller (the releasing owner, under the latch), so the
       grant needs no CAS. *)
    ignore (Atomic.fetch_and_add t.word 1 : int);
    Some (admitted_of w)
  end
  else None

let claim t = t.claimed <- t.claimed + 1
let pipeline_empty t = arrivals_of (Atomic.get t.word) = t.claimed
let pending_tickets t = arrivals_of (Atomic.get t.word) - t.claimed

let slot_for t ticket = t.slots.(ticket land (Array.length t.slots - 1))

let rec without ticket = function
  | Nil -> Nil
  | Waiter w when w.ticket = ticket -> w.next
  | Waiter w -> Waiter { w with next = without ticket w.next }

let rec publish slot ticket parker =
  let l = Atomic.get slot in
  if not (Atomic.compare_and_set slot l (Waiter { ticket; parker; next = l })) then
    publish slot ticket parker

let rec withdraw slot ticket =
  let l = Atomic.get slot in
  if not (Atomic.compare_and_set slot l (without ticket l)) then withdraw slot ticket

let await env t ticket =
  let parker = env.Runtime.parker in
  if granted t ticket then `Spun
  else if
    (* An OS-thread waiter spins (yield policy) before parking.  A
       fiber waiter parks at once: its holder shares the carrier, so a
       spin step only requeues the waiter behind the holder it waits
       for. *)
    (not (Parker.cooperative parker))
    && Backoff.bounded
         (Backoff.create ~policy:Backoff.Yield ~parker ())
         ~budget:t.spin
         (fun () -> granted t ticket)
  then `Spun
  else begin
    let slot = slot_for t ticket in
    publish slot ticket parker;
    (* Re-check after publishing: the granter may have read the slot
       (and found nobody) before our push — seq-cst atomics guarantee
       that in that case we see the grant.  Stale permits from earlier
       episodes make park return early; the word is the truth. *)
    let parked = ref false in
    while not (granted t ticket) do
      parked := true;
      Parker.park parker
    done;
    withdraw slot ticket;
    if !parked then `Parked else `Spun
  end

let wake t ticket =
  let rec find = function
    | Nil -> () (* still spinning, or not yet published: the word grant is enough *)
    | Waiter w -> if w.ticket = ticket then Parker.unpark w.parker else find w.next
  in
  find (Atomic.get (slot_for t ticket))
