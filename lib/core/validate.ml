exception Violation of string

let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

type shadow = {
  mutex : Mutex.t;
  table : (int, int * int) Hashtbl.t; (* object id -> owner index, count *)
}

let shadow_create () = { mutex = Mutex.create (); table = Hashtbl.create 64 }

let with_shadow shadow f =
  Mutex.lock shadow.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock shadow.mutex) f

let me (env : Tl_runtime.Runtime.env) = env.Tl_runtime.Runtime.descriptor.Tl_runtime.Tid.index

let entry shadow obj =
  Option.value ~default:(0, 0) (Hashtbl.find_opt shadow.table (Tl_heap.Obj_model.id obj))

let set_entry shadow obj owner count =
  let id = Tl_heap.Obj_model.id obj in
  if owner = 0 then Hashtbl.remove shadow.table id
  else Hashtbl.replace shadow.table id (owner, count)

(* After the underlying acquire returns, this thread must be the
   shadow's owner; before a release, it must be. *)
let with_validation (scheme : Scheme_intf.packed) : Scheme_intf.packed =
  let shadow = shadow_create () in
  let acquire env obj =
    scheme.Scheme_intf.acquire env obj;
    with_shadow shadow (fun () ->
        let owner, count = entry shadow obj in
        if owner <> 0 && owner <> me env then
          fail "acquire returned while thread %d still holds object %d" owner
            (Tl_heap.Obj_model.id obj);
        set_entry shadow obj (me env) (count + 1))
  in
  let release env obj =
    with_shadow shadow (fun () ->
        let owner, count = entry shadow obj in
        if owner <> me env then
          fail "release by thread %d but shadow owner is %d (count %d)" (me env) owner count;
        set_entry shadow obj (if count = 1 then 0 else me env) (count - 1));
    scheme.Scheme_intf.release env obj
  in
  let wait ?timeout env obj =
    let saved =
      with_shadow shadow (fun () ->
          let owner, count = entry shadow obj in
          if owner <> me env then fail "wait by non-owner %d" (me env);
          set_entry shadow obj 0 0;
          count)
    in
    scheme.Scheme_intf.wait ?timeout env obj;
    with_shadow shadow (fun () ->
        let owner, _ = entry shadow obj in
        if owner <> 0 && owner <> me env then
          fail "wait returned while thread %d holds object %d" owner
            (Tl_heap.Obj_model.id obj);
        set_entry shadow obj (me env) saved)
  in
  let notify env obj =
    with_shadow shadow (fun () ->
        let owner, _ = entry shadow obj in
        if owner <> me env then fail "notify by non-owner %d" (me env));
    scheme.Scheme_intf.notify env obj
  in
  let notify_all env obj =
    with_shadow shadow (fun () ->
        let owner, _ = entry shadow obj in
        if owner <> me env then fail "notifyAll by non-owner %d" (me env));
    scheme.Scheme_intf.notify_all env obj
  in
  let deflate_idle obj =
    (* Attempting deflation on a held lock is legal — the handshake is
       designed to abort it — so the violation is outcome-based: a
       deflation that REPORTS success on an object the shadow shows as
       owned stranded that owner.  The shadow mutex is held across the
       scheme call so the comparison is against the shadow state the
       deflation raced with: the shadow's release clears ownership
       before the real release and its acquire records ownership after
       the real acquire, so "deflated a shadow-owned object" cannot be
       a bystander artifact.  (Lock order is safe: schemes never take
       the shadow mutex, and the monitor latch is never held while
       calling back into us.) *)
    with_shadow shadow (fun () ->
        let owner, count = entry shadow obj in
        let deflated = scheme.Scheme_intf.deflate_idle obj in
        if deflated && owner <> 0 then
          fail "deflation succeeded while thread %d holds object %d (count %d)" owner
            (Tl_heap.Obj_model.id obj) count;
        deflated)
  in
  {
    scheme with
    Scheme_intf.name = scheme.Scheme_intf.name ^ "+validated";
    acquire;
    release;
    wait;
    notify;
    notify_all;
    deflate_idle;
  }

let with_chaos ?(seed = 0xC4405) ?(yield_probability = 0.1) (scheme : Scheme_intf.packed) :
    Scheme_intf.packed =
  (* Per-call randomness without shared PRNG state: hash a counter. *)
  let counter = Atomic.make seed in
  let threshold = int_of_float (yield_probability *. 1024.0) in
  let maybe_yield () =
    let n = Atomic.fetch_and_add counter 0x9E3779B1 in
    let h = (n lxor (n lsr 16)) * 0x45D9F3B in
    if (h lsr 7) land 1023 < threshold then Thread.yield ()
  in
  let wrap2 f env obj =
    maybe_yield ();
    f env obj;
    maybe_yield ()
  in
  {
    scheme with
    Scheme_intf.name = scheme.Scheme_intf.name ^ "+chaos";
    acquire = wrap2 scheme.Scheme_intf.acquire;
    release = wrap2 scheme.Scheme_intf.release;
    wait =
      (fun ?timeout env obj ->
        maybe_yield ();
        scheme.Scheme_intf.wait ?timeout env obj;
        maybe_yield ());
    notify = wrap2 scheme.Scheme_intf.notify;
    notify_all = wrap2 scheme.Scheme_intf.notify_all;
  }
