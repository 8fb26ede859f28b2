(* Integration: the shipped mini-Java example programs must produce
   identical output under every locking scheme — the schemes differ
   only in cost, never in semantics. *)

let check_str = Alcotest.(check string)

let program_dir = "../examples/programs"

let read path = In_channel.with_open_bin path In_channel.input_all

let run_program ~scheme_name file =
  let vm =
    Tl_lang.Driver.run_source ~scheme_of:(Tl_baselines.Registry.find_exn scheme_name)
      (read (Filename.concat program_dir file))
  in
  Tl_jvm.Vm.output vm

let schemes = [ "thin"; "jdk111"; "ibm112"; "fat"; "mcs"; "thin-unlkcas"; "thin-count2" ]

let deterministic_programs =
  [
    ("counter.mj", "final count: 10000\n");
    ("javalex_like.mj", "checksum: 36743\n");
    ("jax_like.mj", "length-2 paths: 1334\n");
    ("philosophers.mj", "meals eaten: 2000\n");
    ("compilerish.mj", "distinct opcodes: 5\nbytes emitted: 16782\n");
    ("pipeline.mj", "sum of 1..500 = 125250\n");
    ("hashjava_like.mj", "declared: 4000, self-mentions: 61\n");
  ]

let test_program (file, expected) () =
  List.iter
    (fun scheme_name ->
      check_str
        (Printf.sprintf "%s under %s" file scheme_name)
        expected
        (run_program ~scheme_name file))
    schemes

let test_sync_census_matches_across_schemes () =
  (* Same program => same number of monitor operations, whatever the
     scheme.  (Threaded programs may differ slightly in contention
     classification but never in the total.) *)
  let counts =
    List.map
      (fun scheme_name ->
        let vm =
          Tl_lang.Driver.run_source
            ~scheme_of:(Tl_baselines.Registry.find_exn scheme_name)
            (read (Filename.concat program_dir "compilerish.mj"))
        in
        Tl_jvm.Vm.sync_op_count vm)
      schemes
  in
  match counts with
  | [] -> Alcotest.fail "no schemes"
  | first :: rest ->
      List.iter (fun c -> Alcotest.(check int) "same sync count" first c) rest

let () =
  Alcotest.run "programs"
    [
      ( "example programs under all schemes",
        List.map
          (fun ((file, _) as p) -> Alcotest.test_case file `Slow (test_program p))
          deterministic_programs );
      ( "census",
        [
          Alcotest.test_case "sync census scheme-independent" `Slow
            test_sync_census_matches_across_schemes;
        ] );
    ]
