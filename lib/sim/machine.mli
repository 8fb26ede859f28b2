(** A deterministic shared-memory machine for model checking and
    instruction counting.

    Algorithms are written as step machines in continuation style over
    a small word-addressed shared memory; every shared-memory access
    (load, store, compare-and-swap, atomic exchange) is a scheduling
    point.  The explorer enumerates {e all} interleavings of a small
    configuration up to a depth bound and checks a user-supplied state
    invariant after every step — this is how we machine-check the
    paper's informal argument that the owner-only-writes discipline is
    safe (§2.3.2), and how we count the operations on each path
    (§3.3's instruction-count discussion).

    Programs must be pure apart from their memory effects: local state
    is threaded through continuation arguments, so a [step] value can
    be resumed along different futures during exploration. *)

type step =
  | Done
  | Load of int * (int -> step)  (** address, continuation on the value *)
  | Store of int * int * (unit -> step)  (** address, value *)
  | Cas of int * int * int * (bool -> step)
      (** address, expected, replacement; continuation on success *)
  | Exchange of int * int * (int -> step)  (** address, new value; continuation on old *)
  | Alu of int * (unit -> step)
      (** [n] register/branch instructions with no memory effect;
          counted but not a scheduling point *)
  | Label of string * (unit -> step)
      (** execution marker (e.g. entering a critical section); not a
          scheduling point, visible to invariants via the trace *)

type program = unit -> step
(** A thread body; invoked once per run/exploration branch. *)

(** {1 Sequential execution and op counting} *)

type op_counts = { loads : int; stores : int; cas : int; exchanges : int; alu : int }

val zero_counts : op_counts
val total_ops : op_counts -> int
val pp_op_counts : Format.formatter -> op_counts -> unit

val run_solo : mem_size:int -> program -> int array * op_counts
(** Run one program to completion on fresh zeroed memory; returns the
    final memory and the operation census.
    @raise Failure if the program exceeds 1e6 steps (runaway spin). *)

val run_seeded : int array -> program -> op_counts
(** Like {!run_solo} but on caller-provided (pre-seeded, mutated in
    place) memory. *)

(** {1 Exhaustive interleaving exploration} *)

type violation = {
  message : string;
  schedule : int list;  (** thread choices from the start, oldest first *)
}

type outcome = {
  explored_paths : int;
  completed_paths : int;  (** paths on which every thread reached [Done] *)
  truncated_paths : int;  (** paths cut by the depth bound *)
  violation : violation option;  (** first invariant failure found, if any *)
}

val explore :
  ?max_depth:int ->
  ?seed_mem:(int * int) list ->
  ?final:(int array -> string option) ->
  mem_size:int ->
  invariant:(int array -> string option) ->
  program array ->
  outcome
(** Depth-first enumeration of all interleavings of the programs over
    a shared zeroed memory of [mem_size] words.  [seed_mem] is a list
    of [(address, value)] pairs applied to the initial memory — e.g.
    seeding an already-inflated lock word so a deflater has something
    to deflate without paying the inflation prefix.  [invariant] inspects
    memory after every scheduling point and returns [Some msg] to
    report a violation; [final] additionally checks the memory of
    every path on which all threads completed.  Exploration stops at
    the first violation.  [max_depth] (default 10_000) bounds each
    path's total step count — spin loops make some schedules infinite,
    so model programs should bound their retries; paths hitting the
    depth bound are counted as truncated, not failed.

    Exploration is exponential in total memory operations: keep model
    programs to a handful of shared accesses each. *)

val sample :
  ?max_depth:int ->
  ?seed_mem:(int * int) list ->
  ?final:(int array -> string option) ->
  schedules:int ->
  seed:int ->
  mem_size:int ->
  invariant:(int array -> string option) ->
  program array ->
  outcome
(** Randomized complement to {!explore} for configurations too large
    to enumerate: runs [schedules] uniformly-random schedules
    (deterministic in [seed], each on freshly [seed_mem]-initialized
    memory), checking the same invariants.  Spin
    loops are fine here — random schedulers are fair with probability
    1 — but [max_depth] still guards against livelock. *)

(** {1 Single random schedule with label collection} *)

type traced = {
  t_mem : int array;  (** final memory *)
  t_labels : string list;  (** every {!Label} crossed, in execution order *)
  t_steps : int;  (** scheduling steps taken *)
}

val run_random :
  ?max_depth:int ->
  ?seed_mem:(int * int) list ->
  seed:int ->
  mem_size:int ->
  program array ->
  traced
(** Run the programs under one uniformly-random schedule
    (deterministic in [seed]) to completion, collecting every label
    crossed.  A [Label] placed in continuation position immediately
    after a memory access executes within the same scheduling turn as
    that access, so model programs that label their linearisation
    points yield label sequences in exact linearisation order — which
    is what lets a checker stamp the collected stream's per-object
    order from label order alone.  Unlike {!sample} there is no invariant: the point is to
    extract the execution trace and judge it externally.
    @raise Failure if the schedule exceeds [max_depth] (default
    200_000) steps. *)
