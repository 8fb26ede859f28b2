(* mjava: compile and run a mini-Java source file under a chosen
   locking scheme, then report the synchronization census — the
   instrumented-JVM workflow of the paper's §3 in miniature. *)

open Cmdliner

let file_arg =
  let doc = "Mini-Java source file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let scheme_arg =
  let doc =
    Printf.sprintf "Locking scheme (one of: %s)."
      (String.concat ", " (Tl_baselines.Registry.names ()))
  in
  Arg.(value & opt string "thin" & info [ "scheme"; "s" ] ~docv:"SCHEME" ~doc)

let stats_arg =
  let doc = "Print the locking statistics after the run." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let disasm_arg =
  let doc = "Print the compiled bytecode instead of running." in
  Arg.(value & flag & info [ "disasm" ] ~doc)

let time_arg =
  let doc = "Report elapsed wall time." in
  Arg.(value & flag & info [ "time" ] ~doc)

let reap_arg =
  let doc =
    "Hook the monitor-lifecycle reaper onto the VM's quiescence points (schemes \
     whose monitors deflate: thin and its variants): every safepoint-driven \
     announcement runs a deflation scan under this policy (never, always-idle, \
     idle-for-4, zero-contended-episodes)."
  in
  Arg.(value & opt (some string) None & info [ "reap" ] ~docv:"POLICY" ~doc)

let safepoint_arg =
  let doc =
    "Safepoint poll interval: every Nth backward branch or method entry announces a \
     quiescence point (0 disables polling)."
  in
  Arg.(
    value
    & opt int Tl_jvm.Vm.default_safepoint_interval
    & info [ "safepoint-interval" ] ~docv:"N" ~doc)

(* The scheme with a quiescence-hooked reaper attached before the VM
   starts — the --reap wiring. *)
let reaping_scheme (entry : Tl_baselines.Registry.entry) policy runtime =
  let scheme = entry.make runtime in
  match scheme.Tl_core.Scheme_intf.lifecycle with
  | Deflates ctx ->
      Tl_lifecycle.Reaper.on_quiescence ~policy runtime ctx;
      scheme
  | Evaporates _ | Static ->
      Printf.eprintf "--reap needs a scheme whose monitors deflate (got %s)\n" entry.name;
      exit 1

let run file scheme_name reap safepoint_interval stats disasm time =
  try
    if disasm then begin
      let source = In_channel.with_open_bin file In_channel.input_all in
      let program = Tl_lang.Driver.compile_source source in
      Format.printf "%a@." Tl_jvm.Classfile.pp_disassembly program;
      0
    end
    else begin
      let scheme_of =
        match reap with
        | None -> None
        | Some policy_name -> (
            match Tl_lifecycle.Policy.of_string policy_name with
            | Some policy ->
                Some (reaping_scheme (Tl_baselines.Registry.find_entry_exn scheme_name) policy)
            | None ->
                Printf.eprintf "unknown policy %S\n" policy_name;
                exit 1)
      in
      let t0 = Unix.gettimeofday () in
      let vm =
        Tl_lang.Driver.run_file ~scheme_name ?scheme_of ~safepoint_interval ~echo:true file
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      if time then Printf.printf "[%.3fs under %s]\n" elapsed scheme_name;
      if stats then begin
        let snapshot = (Tl_jvm.Vm.scheme vm).Tl_core.Scheme_intf.stats () in
        Format.printf "--- locking statistics (%s) ---@.%a@." scheme_name
          Tl_core.Lock_stats.pp snapshot;
        Printf.printf "objects allocated: %d\n"
          (Tl_heap.Heap.objects_allocated (Tl_jvm.Vm.heap vm));
        Printf.printf "safepoint polls: %d, quiescence points: %d\n"
          (Tl_jvm.Vm.safepoint_polls vm)
          (Tl_runtime.Runtime.quiescence_count (Tl_jvm.Vm.runtime vm))
      end;
      0
    end
  with
  | Tl_lang.Lexer.Error msg | Tl_lang.Parser.Error msg ->
      Printf.eprintf "syntax error: %s\n" msg;
      1
  | Tl_lang.Compiler.Error msg ->
      Printf.eprintf "compile error: %s\n" msg;
      1
  | Tl_jvm.Vm.Runtime_error msg ->
      Printf.eprintf "runtime error: %s\n" msg;
      1
  | Tl_jvm.Value.Type_error msg ->
      Printf.eprintf "type error: %s\n" msg;
      1

let () =
  let info =
    Cmd.info "mjava" ~version:"1.0.0" ~doc:"Run mini-Java programs on the thin-locks VM"
  in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const run $ file_arg $ scheme_arg $ reap_arg $ safepoint_arg $ stats_arg
            $ disasm_arg $ time_arg)))
