let compile_source ?main_class source = Compiler.compile ?main_class (Parser.parse source)

let run_source ?scheme_of ?echo ?safepoint_interval ?main_class source =
  let program = compile_source ?main_class source in
  let vm =
    Tl_jvm.Vm.create ?scheme_of ?echo ?safepoint_interval ~natives:Tl_jvm.Jlib.natives
      ~native_states:Tl_jvm.Jlib.native_states program
  in
  ignore (Tl_jvm.Vm.run_main vm);
  vm

let run_file ?scheme_of ?echo ?safepoint_interval ?main_class path =
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  run_source ?scheme_of ?echo ?safepoint_interval ?main_class source
