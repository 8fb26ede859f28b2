type t = string list Atomic.t

let create () = Atomic.make []

let rec fail t msg =
  let l = Atomic.get t in
  if not (Atomic.compare_and_set t l (msg :: l)) then fail t msg

let check_int t msg expected actual =
  if expected <> actual then
    fail t (Printf.sprintf "%s: expected %d, got %d" msg expected actual)

let check_bool t msg expected actual =
  if expected <> actual then
    fail t (Printf.sprintf "%s: expected %b, got %b" msg expected actual)

let assert_none t =
  match List.rev (Atomic.get t) with
  | [] -> ()
  | fs ->
      Alcotest.failf "%d worker check(s) failed:\n  %s" (List.length fs)
        (String.concat "\n  " fs)
