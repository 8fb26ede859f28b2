(** Object allocation with census counters.

    Table 1 of the paper characterises benchmarks by objects created
    versus objects synchronized; the heap keeps the first counter (the
    second is kept by the locking schemes' statistics). *)

type t

val create : unit -> t

val alloc : ?class_id:int -> t -> Obj_model.t
(** Allocate a fresh object.  Thread-safe. *)

val alloc_many : ?class_id:int -> ?shards:int -> t -> int -> Obj_model.t array
(** [n] fresh objects with consecutive ids, index order.  [shards]
    (default 1) only changes the allocation order: every object whose
    index is [0 mod shards] first, then [1 mod shards], and so on.  A
    workload that splits the array across threads by index modulo
    [shards] then finds each thread's objects — and their lock words —
    side by side in memory, instead of interleaved with the other
    threads' on shared cache lines. *)

val objects_allocated : t -> int
val reset_counters : t -> unit
