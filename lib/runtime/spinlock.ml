type t = bool Atomic.t

let create () = Atomic.make false

(* test-and-test-and-set: read before attempting the expensive CAS.
   The backoff state exists only once an attempt has failed. *)
let[@inline never] acquire_contended t =
  let backoff = Backoff.create () in
  Backoff.once backoff;
  while Atomic.get t || not (Atomic.compare_and_set t false true) do
    Backoff.once backoff
  done

let acquire t = if not (Atomic.compare_and_set t false true) then acquire_contended t
let release t = Atomic.set t false
let try_acquire t = (not (Atomic.get t)) && Atomic.compare_and_set t false true
