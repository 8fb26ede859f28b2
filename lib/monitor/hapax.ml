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

type request = {
  run : unit -> unit;
  finished : bool Atomic.t;
  submitter : Parker.t;
      (* unparked by the combiner right after the [finished] store, so
         a sleeping submitter learns of completion without polling *)
  mutable trap : exn option;
      (* written by the combiner before the [finished] store, read by
         the submitter after observing it — published by the atomic *)
}

type t = {
  word : int Atomic.t;
  mutable claimed : int;
      (* tickets retired into ownership; touched only under the
         embedding lock's latch (and by at most one granted waiter at a
         time), so a plain field suffices *)
  slots : Parker.t option Atomic.t array; (* length is a power of two *)
  spin : int; (* Backoff step budget before a granted-pending waiter parks *)
  combine : request option Atomic.t array;
  pending : int Atomic.t; (* announced, unfinished delegation requests *)
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* The slot ring must out-size realistic queue depths: a waiter whose
   slot is still occupied by the ticket [slots] ahead of it has nowhere
   to publish and can only yield-poll, and thousands of yield-polling
   fibers convoy the carrier's run queue.  1024 slots cost 8 KB per
   engine — engines are per-inflation and transient — and cover the
   deepest queues the storms produce. *)
(* The spin budget is deliberately long compared with the parker
   backend's spin-before-park: a hapax waiter spins on one immutable
   word (no latch, no cache-line fight), which is exactly the property
   value-based admission buys, so grants overwhelmingly land mid-spin
   and the park/unpark syscall pair never happens. *)
let create ?(slots = 1024) ?(combine_slots = 64) ?(spin = 96) () =
  if slots < 1 || combine_slots < 1 || spin < 0 then invalid_arg "Hapax.create";
  {
    word = Atomic.make 0;
    claimed = 0;
    slots = Array.init (next_pow2 slots) (fun _ -> Atomic.make None);
    spin;
    combine = Array.init combine_slots (fun _ -> Atomic.make None);
    pending = Atomic.make 0;
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

let await env t ticket =
  if granted t ticket then `Spun
  else begin
    let parker = env.Runtime.parker in
    (* Yield policy, through the parker: when the holder is a fiber
       queued on this very carrier domain, a bare spin would starve
       it. *)
    let b = Backoff.create ~policy:Backoff.Yield ~parker () in
    if Backoff.bounded b ~budget:t.spin (fun () -> granted t ticket) then `Spun
    else begin
      let slot = slot_for t ticket in
      let parked = ref false in
      let rec with_slot () =
        if granted t ticket then ()
        else if Atomic.get slot = None && Atomic.compare_and_set slot None (Some parker)
        then begin
          (* Re-check after publishing: the granter may have read the
             slot (and found nobody) before our store — seq-cst
             atomics guarantee that in that case we see the grant. *)
          let rec block () =
            if not (granted t ticket) then begin
              parked := true;
              Parker.park parker;
              (* stale permits from earlier episodes park-return early;
                 the word is the truth *)
              block ()
            end
          in
          block ();
          (* Only this ticket may occupy the slot until it is granted,
             so a plain clear is race-free; ticket + slots CASes in
             only after seeing None. *)
          Atomic.set slot None
        end
        else begin
          (* Collision: the slot still belongs to ticket - slots, a
             queue position [slots] ahead of us.  The default ring is
             sized past realistic queue depths, so this is the rare
             overflow path, not the steady state — yield the processor
             toward whoever is draining the queue and retry.  (A timed
             sleep would be kinder to the run queue, but en-masse
             timers melt the fiber scheduler's timer list; see
             lib/fiber.) *)
          Parker.yield parker;
          with_slot ()
        end
      in
      with_slot ();
      if !parked then `Parked else `Spun
    end
  end

let wake t ticket =
  match Atomic.get (slot_for t ticket) with
  | Some p -> Parker.unpark p
  | None -> () (* still spinning; the word grant is enough *)

(* --- delegation (flat combining) --- *)

let make_request ~submitter f =
  { run = f; finished = Atomic.make false; submitter; trap = None }
let submit_begin t = Atomic.incr t.pending
let submit_cancel t = Atomic.decr t.pending

let try_publish t r =
  let n = Array.length t.combine in
  let rec scan i =
    if i >= n then false
    else
      let slot = t.combine.(i) in
      if Atomic.get slot = None && Atomic.compare_and_set slot None (Some r) then true
      else scan (i + 1)
  in
  scan 0

let finished r = Atomic.get r.finished
let reraise r = match r.trap with Some e -> raise e | None -> ()

let finish t r =
  (try r.run () with e -> r.trap <- Some e);
  Atomic.set r.finished true;
  Atomic.decr t.pending;
  Parker.unpark r.submitter

let drain t =
  let executed = ref 0 in
  Array.iter
    (fun slot ->
      match Atomic.get slot with
      | Some r ->
          (* Pop before running: the slot frees up for the next
             submitter while the request executes, and exactly-once
             follows from the drainer's exclusive ownership. *)
          Atomic.set slot None;
          finish t r;
          incr executed
      | None -> ())
    t.combine;
  !executed

let pending_delegations t = Atomic.get t.pending
