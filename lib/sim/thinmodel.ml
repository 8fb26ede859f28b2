open Machine
module Header = Tl_heap.Header

module Addr = struct
  let lockword = 0
  let fat_owner = 2
  let fat_count = 3
  let cs_flag ~tid = 4 + tid (* tids are 1-based, at most 8 *)
  let done_flag ~tid = 12 + tid
  let gave_up_flag ~tid = 20 + tid
  let fat_retired = 29
  let deflated_flag = 30
  let protocol_error = 31
  let mem_size = 32
end

let shifted tid = tid lsl Header.tid_offset

(* The deflater's ownership token: a "thread index" no worker uses.
   [retire_if_idle] is modelled as CAS-ing it into [fat_owner], which
   atomically checks idleness (owner = 0 ⇔ idle: the model monitor has
   no queues) and excludes entrants.  A deflated monitor keeps the
   token forever — the model's tombstone for a freed slot — so no
   entrant can ever CAS a retired monitor; the next inflation installs
   a fresh owner/count/retired triple, modelling a fresh fat lock. *)
let deflater_token = 15

let give_up ~tid = Store (Addr.gave_up_flag ~tid, 1, fun () -> Done)

(* Protocol-event marker, mirroring the instrumentation in
   [Tl_core.Thin]: ["ev <tid> <kind-name>"], parseable back into
   [Tl_events.Event] records (the single model object is id 1).  Each
   marker sits in continuation position immediately after the memory
   access that linearises the operation, so [Machine.run_random]
   collects the labels in exact linearisation order: stamped with
   per-object ordinals in that order, the stream is what the sink's
   lock holders would have recorded, and the oracle can judge it. *)
let ev ~trace ~tid name k : step =
  if trace then Label (Printf.sprintf "ev %d %s" tid name, k) else k ()

let fat_release ~trace ~tid k =
  Load
    ( Addr.fat_count,
      fun c ->
        if c > 1 then
          Store (Addr.fat_count, c - 1, fun () -> ev ~trace ~tid "release-fat" k)
        else Store (Addr.fat_owner, 0, fun () -> ev ~trace ~tid "release-fat" k) )

(* Inflate a thin lock we own: install the model fat monitor
   (owner/count, with the retired tombstone of any previous incarnation
   cleared — a fresh fat lock) and publish the inflated word.  [locks]
   is the total lock count to transfer.  [cause] is the inflation
   event to emit ("inflate-overflow" or "inflate-contention"),
   followed — as in [Thin.inflate_owned] — by the confirming
   acquire-fat. *)
let inflate_owned ~trace ~cause ~tid ~locks k =
  Store
    ( Addr.fat_retired,
      0,
      fun () ->
        Store
          ( Addr.fat_owner,
            tid,
            fun () ->
              Store
                ( Addr.fat_count,
                  locks,
                  fun () ->
                    Load
                      ( Addr.lockword,
                        fun word ->
                          Store
                            ( Addr.lockword,
                              Header.inflated_word ~hdr:(Header.hdr_bits word) ~monitor_index:1,
                              fun () ->
                                ev ~trace ~tid cause (fun () ->
                                    ev ~trace ~tid "acquire-fat" k) ) ) ) ) )

(* --- the thin-lock protocol, mirroring Tl_core.Thin.acquire ---

   The model fat monitor is a CAS-guarded owner/count pair.  The fat
   path is retire-aware, mirroring [Thin.fat_acquire]: the entry load
   of [fat_retired] models the generation check ([Montable.find]
   returning [None]), the post-spin load models [Fatlock.acquire_live]
   returning [`Retired]; both bounce back to a fresh read of the lock
   word, which the deflater rewrites right after retiring. *)

let rec fat_acquire ?(trace = false) ~tid ~budget k =
  Load
    ( Addr.fat_retired,
      fun r ->
        if r = 1 then restart ~trace ~tid ~budget k
        else
          Cas
            ( Addr.fat_owner,
              0,
              tid,
              fun ok ->
                if ok then
                  ev ~trace ~tid "acquire-fat" (fun () -> Store (Addr.fat_count, 1, k))
                else
                  Load
                    ( Addr.fat_owner,
                      fun owner ->
                        if owner = tid then
                          Load
                            ( Addr.fat_count,
                              fun c ->
                                Store
                                  ( Addr.fat_count,
                                    c + 1,
                                    fun () -> ev ~trace ~tid "acquire-fat" k ) )
                        else
                          Load
                            ( Addr.fat_retired,
                              fun r ->
                                if r = 1 then restart ~trace ~tid ~budget k
                                else if budget <= 0 then give_up ~tid
                                else
                                  Alu
                                    ( 1,
                                      fun () ->
                                        fat_acquire ~trace ~tid ~budget:(budget - 1) k )
                            ) ) ) )

and restart ~trace ~tid ~budget k =
  if budget <= 0 then give_up ~tid else acquire ~trace ~tid ~budget:(budget - 1) k

and acquire ?(trace = false) ~tid ~budget k =
  Load
    ( Addr.lockword,
      fun word ->
        let unlocked = Header.hdr_bits word in
        Alu
          ( 2,
            fun () ->
              Cas
                ( Addr.lockword,
                  unlocked,
                  unlocked lor shifted tid,
                  fun ok ->
                    if ok then ev ~trace ~tid "acquire-fast" k
                    else acquire_slow ~trace ~tid ~budget word k ) ) )

and acquire_slow ~trace ~tid ~budget stale k =
  ignore stale;
  Load
    ( Addr.lockword,
      fun word ->
        let x = word lxor shifted tid in
        if x < Header.nested_limit then
          Alu
            ( 2,
              fun () ->
                Store
                  ( Addr.lockword,
                    word + Header.count_increment,
                    fun () -> ev ~trace ~tid "acquire-nested" k ) )
        else if Header.is_inflated word then fat_acquire ~trace ~tid ~budget k
        else if Header.is_unlocked word then
          if budget <= 0 then give_up ~tid else acquire ~trace ~tid ~budget:(budget - 1) k
        else if Header.thin_owner word = tid then
          (* count overflow *)
          inflate_owned ~trace ~cause:"inflate-overflow" ~tid
            ~locks:(Header.thin_count word + 2) k
        else
          ev ~trace ~tid "contended-begin" (fun () ->
              contended ~trace ~tid ~budget (fun () ->
                  ev ~trace ~tid "contended-end" k)) )

and contended ~trace ~tid ~budget k =
  Load
    ( Addr.lockword,
      fun word ->
        if Header.is_inflated word then fat_acquire ~trace ~tid ~budget k
        else
          let unlocked = Header.hdr_bits word in
          if Header.is_unlocked word then
            Cas
              ( Addr.lockword,
                unlocked,
                unlocked lor shifted tid,
                fun ok ->
                  if ok then inflate_owned ~trace ~cause:"inflate-contention" ~tid ~locks:1 k
                  else if budget <= 0 then give_up ~tid
                  else contended ~trace ~tid ~budget:(budget - 1) k )
          else if budget <= 0 then give_up ~tid
          else Alu (1, fun () -> contended ~trace ~tid ~budget:(budget - 1) k) )

let release ?(lenient = false) ?(trace = false) ~tid k =
  Load
    ( Addr.lockword,
      fun word ->
        let held_once = Header.hdr_bits word lor shifted tid in
        if word = held_once then
          Alu
            ( 1,
              fun () ->
                Store
                  ( Addr.lockword,
                    Header.hdr_bits word,
                    fun () -> ev ~trace ~tid "release-fast" k ) )
        else if word lxor shifted tid < 1 lsl Header.tid_offset then
          Alu
            ( 1,
              fun () ->
                Store
                  ( Addr.lockword,
                    word - Header.count_increment,
                    fun () -> ev ~trace ~tid "release-nested" k ) )
        else if Header.is_inflated word then fat_release ~trace ~tid k
        else if lenient then k ()
          (* buggy-variant worlds reach states where the "owner" was
             already dispossessed; exploration must go on *)
        else failwith "model release: not owner" )

(* --- critical section: flag up, flag down ---
   Two plain stores keep exploration tractable; any overlap of two
   critical sections makes both flags 1 simultaneously, which the
   per-step invariant observes no matter how the stores interleave. *)

let critical_section ~tid k =
  Store (Addr.cs_flag ~tid, 1, fun () -> Store (Addr.cs_flag ~tid, 0, k))

let rec lock_n ?trace ~tid ~budget n k =
  if n = 0 then k ()
  else acquire ?trace ~tid ~budget (fun () -> lock_n ?trace ~tid ~budget (n - 1) k)

let rec release_n ?lenient ?trace ~tid n k =
  if n = 0 then k ()
  else release ?lenient ?trace ~tid (fun () -> release_n ?lenient ?trace ~tid (n - 1) k)

let worker ~tid ~iterations ?(nesting = 1) ?lenient ?trace ~spin_budget () : program =
 fun () ->
  let rec iter i =
    if i = 0 then Store (Addr.done_flag ~tid, 1, fun () -> Done)
    else
      lock_n ?trace ~tid ~budget:spin_budget nesting (fun () ->
          critical_section ~tid (fun () ->
              release_n ?lenient ?trace ~tid nesting (fun () -> iter (i - 1))))
  in
  iter iterations

(* --- deflaters ---

   The real handshake ([Thin.deflate_lockword]): claim the
   deflation-in-progress bit on the inflated word, atomically
   check-and-retire the monitor (here: CAS the deflater token into the
   idle owner field), then either rewrite the word to thin-unlocked or
   CAS the bit back off.  The two post-retirement CASes can only fail
   if some other thread wrote an inflated word while we held the bit —
   a protocol violation, flagged at [Addr.protocol_error] for the
   invariant to see. *)

let deflater ?(trace = false) () : program =
 fun () ->
  Load
    ( Addr.lockword,
      fun word ->
        if (not (Header.is_inflated word)) || Header.is_deflating word then Done
        else
          Cas
            ( Addr.lockword,
              word,
              Header.set_deflating word,
              fun won ->
                if not won then Done
                else
                  let finish new_word k =
                    Cas
                      ( Addr.lockword,
                        Header.set_deflating word,
                        new_word,
                        fun ok ->
                          if ok then k () else Store (Addr.protocol_error, 1, fun () -> Done) )
                  in
                  Cas
                    ( Addr.fat_owner,
                      0,
                      deflater_token,
                      fun idle ->
                        if idle then
                          Store
                            ( Addr.fat_retired,
                              1,
                              fun () ->
                                finish (Header.hdr_bits word) (fun () ->
                                    ev ~trace ~tid:0 "deflate-concurrent" (fun () ->
                                        Store (Addr.deflated_flag, 1, fun () -> Done))) )
                        else
                          finish word (fun () ->
                              ev ~trace ~tid:0 "deflate-aborted" (fun () -> Done)) ) ) )

(* The no-handshake deflater: checks idleness with a plain load and
   rewrites the lock word with a plain store — the check-then-act race
   the deflation-in-progress bit exists to close.  A worker can enter
   the monitor between the two; the deflated word then lets a second
   thread in beside it (mutual-exclusion violation), and the first
   worker's release finds a word it no longer owns (completion
   violation). *)
let buggy_no_handshake_deflater ?(trace = false) () : program =
 fun () ->
  Load
    ( Addr.lockword,
      fun word ->
        if not (Header.is_inflated word) then Done
        else
          Load
            ( Addr.fat_owner,
              fun owner ->
                if owner <> 0 then Done
                else
                  Store
                    ( Addr.lockword,
                      Header.hdr_bits word,
                      fun () ->
                        ev ~trace ~tid:0 "deflate-concurrent" (fun () ->
                            Store (Addr.deflated_flag, 1, fun () -> Done)) ) ) )

(* --- broken variants --- *)

let blind_release k =
  Load (Addr.lockword, fun word -> Store (Addr.lockword, Header.hdr_bits word, k))

(* Double release: a correct release followed by a blind store of the
   unlocked pattern — i.e. releasing a lock we no longer hold, which
   can unlock the other thread's fresh acquisition out from under
   it. *)
let buggy_blind_release_worker ~tid ~iterations ~spin_budget () : program =
 fun () ->
  let rec iter i =
    if i = 0 then Done
    else
      acquire ~tid ~budget:spin_budget (fun () ->
          critical_section ~tid (fun () ->
              release ~lenient:true ~tid (fun () -> blind_release (fun () -> iter (i - 1)))))
  in
  iter iterations

(* Owner-skip unlock: after its correct iterations, one extra release
   executed without checking (or holding) ownership — the unlock
   analogue of the non-owner inflate bug below.  The blind store either
   unlocks an object nobody holds, dispossesses whoever does hold it,
   or flattens a live monitor; whichever way the schedule falls, the
   release-fast event it reports cannot be explained by any automaton
   run, so a stream-level oracle flags every schedule. *)
let buggy_owner_skip_unlock_worker ?(trace = false) ~tid ~iterations ~spin_budget () :
    program =
 fun () ->
  let skip_release k =
    Load
      ( Addr.lockword,
        fun word ->
          Store
            ( Addr.lockword,
              Header.hdr_bits word,
              fun () -> ev ~trace ~tid "release-fast" k ) )
  in
  let rec iter i =
    if i = 0 then skip_release (fun () -> Store (Addr.done_flag ~tid, 1, fun () -> Done))
    else
      acquire ~trace ~tid ~budget:spin_budget (fun () ->
          critical_section ~tid (fun () ->
              release ~lenient:true ~trace ~tid (fun () -> iter (i - 1))))
  in
  iter iterations

(* On contention, inflate in place without owning the thin lock — the
   discipline violation §2.3.4 exists to prevent. *)
let rec buggy_acquire ~tid ~budget k =
  Load
    ( Addr.lockword,
      fun word ->
        let unlocked = Header.hdr_bits word in
        Cas
          ( Addr.lockword,
            unlocked,
            unlocked lor shifted tid,
            fun ok ->
              if ok then k ()
              else
                Load
                  ( Addr.lockword,
                    fun word ->
                      let x = word lxor shifted tid in
                      if x < Header.nested_limit then
                        Store (Addr.lockword, word + Header.count_increment, k)
                      else if Header.is_inflated word then fat_acquire ~tid ~budget k
                      else if Header.is_unlocked word then
                        if budget <= 0 then give_up ~tid
                        else buggy_acquire ~tid ~budget:(budget - 1) k
                      else
                        (* BUG: not ours, but write the inflated word anyway
                           and grab the fat monitor. *)
                        Store
                          ( Addr.lockword,
                            Header.inflated_word ~hdr:(Header.hdr_bits word)
                              ~monitor_index:1,
                            fun () -> fat_acquire ~tid ~budget k ) ) ) )

let buggy_nonowner_inflate_worker ~tid ~iterations ~spin_budget () : program =
 fun () ->
  let rec iter i =
    if i = 0 then Done
    else
      buggy_acquire ~tid ~budget:spin_budget (fun () ->
          critical_section ~tid (fun () -> release ~lenient:true ~tid (fun () -> iter (i - 1))))
  in
  iter iterations

(* --- invariants --- *)

let mutual_exclusion_invariant ~threads mem =
  let inside = ref 0 in
  for tid = 1 to threads do
    inside := !inside + mem.(Addr.cs_flag ~tid)
  done;
  if !inside > 1 then Some (Printf.sprintf "%d threads in the critical section" !inside)
  else if mem.(Addr.protocol_error) = 1 then
    Some "deflation handshake CAS failed: inflated word changed under the bit"
  else if mem.(Addr.fat_retired) = 1 && mem.(Addr.fat_owner) <> deflater_token then
    Some "retired monitor has an owner"
  else None

let completion_check ~threads ~iterations mem =
  ignore iterations;
  let gave_up = ref 0 in
  let finished = ref 0 in
  for tid = 1 to threads do
    gave_up := !gave_up + mem.(Addr.gave_up_flag ~tid);
    finished := !finished + mem.(Addr.done_flag ~tid)
  done;
  let gave_up = !gave_up in
  if !finished + gave_up < threads then
    Some (Printf.sprintf "threads unaccounted for: finished=%d gave_up=%d" !finished gave_up)
  else if gave_up = 0 && Header.is_thin_locked mem.(Addr.lockword) then
    Some "lock word left locked after all threads completed"
  else if gave_up = 0 && mem.(Addr.fat_owner) <> 0 && mem.(Addr.fat_retired) = 0 then
    (* A retired monitor legitimately keeps the deflater token — the
       model's freed-slot tombstone. *)
    Some "fat monitor left owned after all threads completed"
  else None

(* --- op counting --- *)

let solo_counts path =
  let program =
    match path with
    | `Initial -> worker ~tid:1 ~iterations:1 ~spin_budget:0 ()
    | `Nested -> worker ~tid:1 ~iterations:1 ~nesting:2 ~spin_budget:0 ()
    | `Deep n -> worker ~tid:1 ~iterations:1 ~nesting:n ~spin_budget:0 ()
  in
  let _, counts = run_solo ~mem_size:Addr.mem_size program in
  counts

let acquire_solo_counts () =
  let mem = Array.make Addr.mem_size 0 in
  run_seeded mem (fun () -> acquire ~tid:1 ~budget:0 (fun () -> Done))

let release_solo_counts () =
  let mem = Array.make Addr.mem_size 0 in
  mem.(Addr.lockword) <- Header.thin_word ~hdr:0 ~shifted_tid:(shifted 1) ~count:0;
  run_seeded mem (fun () -> release ~tid:1 (fun () -> Done))

let nested_acquire_solo_counts () =
  let mem = Array.make Addr.mem_size 0 in
  mem.(Addr.lockword) <- Header.thin_word ~hdr:0 ~shifted_tid:(shifted 1) ~count:0;
  run_seeded mem (fun () -> acquire ~tid:1 ~budget:0 (fun () -> Done))

let nested_release_solo_counts () =
  let mem = Array.make Addr.mem_size 0 in
  mem.(Addr.lockword) <- Header.thin_word ~hdr:0 ~shifted_tid:(shifted 1) ~count:1;
  run_seeded mem (fun () -> release ~tid:1 (fun () -> Done))

let fat_solo_counts () =
  (* Seed memory as an already-inflated, unowned monitor and measure
     one lock/unlock pair through the fat path. *)
  let mem = Array.make Addr.mem_size 0 in
  mem.(Addr.lockword) <- Header.inflated_word ~hdr:0 ~monitor_index:1;
  let program () = acquire ~tid:1 ~budget:0 (fun () -> release ~tid:1 (fun () -> Done)) in
  run_seeded mem program
