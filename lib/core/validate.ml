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
