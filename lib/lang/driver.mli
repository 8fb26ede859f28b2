(** One-call front door: source text → running VM. *)

val compile_source : ?main_class:string -> string -> Tl_jvm.Classfile.program
(** Parse and compile.
    @raise Lexer.Error, Parser.Error or Compiler.Error. *)

val run_source :
  ?scheme_of:(Tl_runtime.Runtime.t -> Tl_core.Scheme_intf.packed) ->
  ?echo:bool ->
  ?safepoint_interval:int ->
  ?main_class:string ->
  string ->
  Tl_jvm.Vm.t
(** Compile and execute [main] on a VM wired to the built-in library;
    returns the finished VM (inspect {!Tl_jvm.Vm.output} and the scheme
    statistics).  [scheme_of] builds the locking scheme (default thin
    locks; a registry entry's [make], possibly wrapped with a reaper or
    an event sink), and [safepoint_interval] is forwarded to
    {!Tl_jvm.Vm.create}. *)

val run_file :
  ?scheme_of:(Tl_runtime.Runtime.t -> Tl_core.Scheme_intf.packed) ->
  ?echo:bool ->
  ?safepoint_interval:int ->
  ?main_class:string ->
  string ->
  Tl_jvm.Vm.t
(** Like {!run_source}, reading the program from a path. *)
