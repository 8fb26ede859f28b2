(** The bytecode interpreter.

    A VM instance binds a linked {!Classfile.program} to a locking
    scheme, a heap and a thread runtime.  [monitorenter]/[monitorexit]
    and `synchronized` method brackets go through the scheme, so
    running the same program under [thin], [jdk111] and [ibm112]
    measures exactly what the paper's macro-benchmarks measure.

    Static synchronized methods lock a per-class object, as in Java. *)

type t

type native_impl = t -> Tl_runtime.Runtime.env -> Value.t -> Value.t array -> Value.t
(** [impl vm env receiver args]; [receiver] is [Null] for statics. *)

exception Runtime_error of string

val default_safepoint_interval : int
(** 256 polls between announcements. *)

val create :
  ?scheme_of:(Tl_runtime.Runtime.t -> Tl_core.Scheme_intf.packed) ->
  ?echo:bool ->
  ?safepoint_interval:int ->
  natives:(string * native_impl) list ->
  native_states:(string * (unit -> Value.native_state)) list ->
  Classfile.program ->
  t
(** The VM owns a fresh thread runtime; [scheme_of] builds the locking
    scheme over that runtime (default: thin locks).  [echo] (default
    false) forwards [System.print] output to stdout as well as the
    capture buffer.

    [safepoint_interval] threads real safepoint polls through the
    interpreter: backward branches and bytecode method entries each
    count one poll, and every [safepoint_interval]-th poll (globally,
    default {!default_safepoint_interval}) announces a
    [Runtime.quiescence_point] on the executing thread — so hooks such
    as the quiescence-driven reaper ([Tl_lifecycle.Reaper.on_quiescence])
    actually run under interpreted workloads.  [0] disables polling. *)

val runtime : t -> Tl_runtime.Runtime.t
val heap : t -> Tl_heap.Heap.t
val scheme : t -> Tl_core.Scheme_intf.packed
val program : t -> Classfile.program

val run_main : t -> Value.t
(** Execute [main] of the program's main class on the runtime's main
    environment, then join all spawned threads.  Returns main's
    result. *)

val spawn_runnable : t -> Value.jobject -> unit
(** Start a thread executing the object's [run()] method (the [Spawn]
    instruction and [Threads.spawn] native both land here). *)

val join_all_threads : t -> unit

val output : t -> string
(** Everything printed through [System.print]/[println] so far. *)

val print_out : t -> string -> unit
(** Append to the captured output (the [System.print] natives use
    this). *)

val sync_op_count : t -> int
(** Total monitor operations (acquires) performed so far — Table 1's
    "Syncs" column. *)

val safepoint_interval : t -> int

val safepoint_polls : t -> int
(** Safepoint polls executed so far (across all VM threads); roughly
    [polls / interval] quiescence points have been announced. *)

