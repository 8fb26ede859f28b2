(** Runtime protocol validation and chaos injection.

    {!with_validation} wraps a packed scheme with an independent shadow
    monitor — a per-object (owner, count) map maintained under its own
    lock — and checks every operation's pre/post conditions against it:
    acquires nest correctly, releases only by the owner, wait/notify
    only while holding.  A scheme that violates monitor semantics trips
    a {!Violation} even if its own bookkeeping is self-consistent.
    Used by the stress tests; too heavyweight for benchmarks.

    {!with_chaos} wraps a scheme so that operations randomly yield the
    processor before and after running — shaking out interleavings that
    cooperative scheduling would otherwise never produce. *)

exception Violation of string

val with_validation : Scheme_intf.packed -> Scheme_intf.packed
(** The wrapped scheme shares the original's statistics.

    Deflation is judged by outcome, not attempt: running [deflate_idle]
    on a held lock is legal (the non-quiescent handshake aborts it),
    but a deflation {e reporting success} while the shadow records an
    owner is a violation — it stranded that owner. *)

val with_chaos : ?seed:int -> ?yield_probability:float -> Scheme_intf.packed -> Scheme_intf.packed
(** [yield_probability] defaults to 0.1 per operation edge. *)
