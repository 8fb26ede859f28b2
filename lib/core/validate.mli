(** Chaos injection.

    {!with_chaos} wraps a scheme so that operations randomly yield the
    processor before and after running — shaking out interleavings that
    cooperative scheduling would otherwise never produce.  What the
    shaken run did is judged from the scheme's event stream by its
    oracle ([Scheme_intf.packed.verify]). *)

val with_chaos : ?seed:int -> ?yield_probability:float -> Scheme_intf.packed -> Scheme_intf.packed
(** [yield_probability] defaults to 0.1 per operation edge. *)
