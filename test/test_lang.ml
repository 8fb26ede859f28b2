(* Frontend and VM: lexer and parser units, compiler static errors,
   and end-to-end program executions checked against expected output
   and expected synchronization censuses. *)

open Tl_lang

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- lexer --- *)

let tokens_of src = List.map (fun t -> t.Token.token) (Lexer.tokenize src)

let test_lex_basics () =
  let open Token in
  Alcotest.(check int) "count" 5 (List.length (tokens_of "class Foo { }"));
  (match tokens_of "x <= 10 && y != 0" with
  | [ Ident "x"; Le; Int_lit 10; And_and; Ident "y"; Ne; Int_lit 0; Eof ] -> ()
  | _ -> Alcotest.fail "token stream mismatch");
  match tokens_of "\"a\\nb\"" with
  | [ Str_lit "a\nb"; Eof ] -> ()
  | _ -> Alcotest.fail "string escape"

let test_lex_comments () =
  match tokens_of "a // line\n /* block\n comment */ b" with
  | [ Token.Ident "a"; Token.Ident "b"; Token.Eof ] -> ()
  | _ -> Alcotest.fail "comments should vanish"

let test_lex_errors () =
  let expect_error src =
    match Lexer.tokenize src with
    | _ -> Alcotest.failf "expected lexer error on %S" src
    | exception Lexer.Error _ -> ()
  in
  expect_error "\"unterminated";
  expect_error "/* unterminated";
  expect_error "a $ b";
  expect_error "a & b"

(* --- parser --- *)

let test_parse_precedence () =
  (match Parser.parse_expression "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, Ast.Int_lit 1, Ast.Binop (Ast.Mul, Ast.Int_lit 2, Ast.Int_lit 3)) ->
      ()
  | _ -> Alcotest.fail "precedence: * binds tighter than +");
  (match Parser.parse_expression "a < b && c < d || e" with
  | Ast.Binop (Ast.Or, Ast.Binop (Ast.And, _, _), Ast.Var "e") -> ()
  | _ -> Alcotest.fail "precedence: || above &&");
  match Parser.parse_expression "v.elementAt(i).toString()" with
  | Ast.Call (Ast.Call (Ast.Var "v", "elementAt", [ Ast.Var "i" ]), "toString", []) -> ()
  | _ -> Alcotest.fail "postfix chaining"

let test_parse_class () =
  let program =
    Parser.parse
      {|
      class Point extends Object {
        int x;
        int y;
        Point(int x0) { this.x = x0; }
        synchronized int getX() { return x; }
        static void main() { Point p = new Point(3); }
      }
      |}
  in
  match program with
  | [ c ] ->
      check_str "name" "Point" c.Ast.cd_name;
      check "super" true (c.Ast.cd_super = Some "Object");
      check_int "fields" 2 (List.length c.Ast.cd_fields);
      check_int "methods" 3 (List.length c.Ast.cd_methods);
      let ctor = List.find (fun m -> m.Ast.md_name = "<init>") c.Ast.cd_methods in
      check_int "ctor params" 1 (List.length ctor.Ast.md_params);
      let getx = List.find (fun m -> m.Ast.md_name = "getX") c.Ast.cd_methods in
      check "synchronized" true getx.Ast.md_synchronized
  | _ -> Alcotest.fail "expected one class"

let test_parse_errors () =
  let expect_error src =
    match Parser.parse src with
    | _ -> Alcotest.failf "expected parse error"
    | exception (Parser.Error _ | Lexer.Error _) -> ()
  in
  expect_error "class { }";
  expect_error "class A { int ; }";
  expect_error "class A { void m() { if x { } } }";
  expect_error "class A { void m() { 1 + ; } }"

(* --- compiler static errors --- *)

let expect_compile_error src =
  match Driver.compile_source src with
  | _ -> Alcotest.fail "expected compile error"
  | exception Compiler.Error _ -> ()

let test_compile_errors () =
  expect_compile_error "class A { void m() { x = 1; } static void main() {} }";
  expect_compile_error "class A { void m() { int x; int x; } static void main() {} }";
  expect_compile_error "class A { } class A { } class B { static void main() {} }";
  expect_compile_error "class Vector { } class B { static void main() {} }";
  expect_compile_error "class A { static void main() { this.toString(); } }";
  expect_compile_error "class A { int f() { return; } static void main() {} }";
  expect_compile_error "class A extends B { static void main() {} }";
  expect_compile_error "class A extends Vector { static void main() {} }";
  expect_compile_error "class A { static void main() { new A(1); } }"

(* --- end-to-end programs --- *)

let run ?(scheme_name = "thin") src =
  Driver.run_source ~scheme_of:(Tl_baselines.Registry.find_exn scheme_name) src

let test_hello () =
  let vm = run {| class Main { static void main() { System.println("hello"); } } |} in
  check_str "output" "hello\n" (Tl_jvm.Vm.output vm)

let test_arithmetic_and_control () =
  let vm =
    run
      {|
      class Main {
        static int fib(int n) {
          if (n < 2) return n;
          return Main.fib(n - 1) + Main.fib(n - 2);
        }
        static void main() {
          int acc = 0;
          for (int i = 0; i < 10; i = i + 1) { acc = acc + i; }
          System.println(acc);
          System.println(Main.fib(15));
          int x = 17 % 5;
          System.println(x * -2);
          System.println("s" + 1 + true);
        }
      }
      |}
  in
  check_str "output" "45\n610\n-4\ns1true\n" (Tl_jvm.Vm.output vm)

let test_objects_and_dispatch () =
  let vm =
    run
      {|
      class Animal {
        String name;
        Animal(String n) { name = n; }
        String speak() { return "..."; }
        String describe() { return name + " says " + this.speak(); }
      }
      class Dog extends Animal {
        Dog(String n) { name = n; }
        String speak() { return "woof"; }
      }
      class Main {
        static void main() {
          Animal a = new Animal("thing");
          Dog d = new Dog("rex");
          System.println(a.describe());
          System.println(d.describe());
        }
      }
      |}
  in
  check_str "output" "thing says ...\nrex says woof\n" (Tl_jvm.Vm.output vm)

let test_synchronized_method_counts () =
  let vm =
    run
      {|
      class Counter {
        int value;
        synchronized void inc() { value = value + 1; }
        synchronized int get() { return value; }
      }
      class Main {
        static void main() {
          Counter c = new Counter();
          for (int i = 0; i < 100; i = i + 1) { c.inc(); }
          System.println(c.get());
        }
      }
      |}
  in
  check_str "output" "100\n" (Tl_jvm.Vm.output vm);
  (* 100 inc + 1 get = 101 monitor acquisitions *)
  check_int "sync ops" 101 (Tl_jvm.Vm.sync_op_count vm)

let test_synchronized_block_and_return () =
  let vm =
    run
      {|
      class Box {
        int v;
        int readLocked() {
          synchronized (this) {
            if (v == 0) { return 42; }
            return v;
          }
        }
      }
      class Main {
        static void main() {
          Box b = new Box();
          System.println(b.readLocked());
          b.v = 7;
          System.println(b.readLocked());
          System.println(b.readLocked() + b.readLocked());
        }
      }
      |}
  in
  check_str "output" "42\n7\n14\n" (Tl_jvm.Vm.output vm);
  (* Returning from inside synchronized must release: 4 acquires and,
     crucially, the program terminates (a leaked monitor would hang
     the next call under contention) with balanced stats. *)
  let stats = (Tl_jvm.Vm.scheme vm).Tl_core.Scheme_intf.stats () in
  check_int "acquires" 4 (Tl_core.Lock_stats.total_acquires stats);
  check_int "releases" 4
    Tl_core.Lock_stats.(
      stats.releases_fast + stats.releases_nested + stats.releases_fat)

let test_vector_and_hashtable () =
  let vm =
    run
      {|
      class Main {
        static void main() {
          Vector v = new Vector();
          for (int i = 0; i < 50; i = i + 1) { v.addElement(i * i); }
          System.println(v.size());
          System.println(v.elementAt(7));
          System.println(v.contains(49));
          Hashtable h = new Hashtable();
          h.put("one", 1);
          h.put("two", 2);
          System.println(h.get("one"));
          System.println(h.get("missing"));
          System.println(h.containsKey("two"));
          h.remove("two");
          System.println(h.size());
        }
      }
      |}
  in
  check_str "output" "50\n49\ntrue\n1\nnull\ntrue\n1\n" (Tl_jvm.Vm.output vm)

let test_bitset_jax_pattern () =
  (* BitSet.get is unsynchronized but takes an internal synchronized
     block: sync ops = number of get calls + number of set calls. *)
  let vm =
    run
      {|
      class Main {
        static void main() {
          BitSet b = new BitSet();
          b.set(3);
          b.set(100);
          int hits = 0;
          for (int i = 0; i < 200; i = i + 1) {
            if (b.get(i)) { hits = hits + 1; }
          }
          System.println(hits);
        }
      }
      |}
  in
  check_str "output" "2\n" (Tl_jvm.Vm.output vm);
  check_int "sync ops" 202 (Tl_jvm.Vm.sync_op_count vm)

let test_stringbuffer () =
  let vm =
    run
      {|
      class Main {
        static void main() {
          StringBuffer sb = new StringBuffer();
          sb.append("a").append(1).append(true);
          System.println(sb.toString());
          System.println(sb.length());
        }
      }
      |}
  in
  check_str "output" "a1true\n6\n" (Tl_jvm.Vm.output vm)

let threaded_counter_src =
  {|
  class Worker {
    Counter counter;
    int iters;
    Worker(Counter c, int n) { counter = c; iters = n; }
    void run() {
      for (int i = 0; i < iters; i = i + 1) { counter.inc(); }
    }
  }
  class Counter {
    int value;
    synchronized void inc() { value = value + 1; }
    synchronized int get() { return value; }
  }
  class Main {
    static void main() {
      Counter c = new Counter();
      for (int t = 0; t < 4; t = t + 1) {
        spawn new Worker(c, 500);
      }
      Threads.joinAll();
      System.println(c.get());
    }
  }
  |}

let test_threads_shared_counter () =
  List.iter
    (fun scheme_name ->
      let vm = run ~scheme_name threaded_counter_src in
      check_str (scheme_name ^ " output") "2000\n" (Tl_jvm.Vm.output vm))
    [ "thin"; "jdk111"; "ibm112"; "fat"; "mcs" ]

let test_wait_notify_natives () =
  (* Object.wait/notify from the language: a rendezvous where the
     waiter must see the flag the notifier set while holding the
     monitor. *)
  let vm =
    run
      {|
      class Flag {
        boolean up;
        synchronized void raise() { up = true; this.notifyAll(); }
        synchronized void await() {
          while (!up) { this.wait(100); }
        }
      }
      class Raiser {
        Flag flag;
        Raiser(Flag f) { flag = f; }
        void run() { flag.raise(); }
      }
      class Main {
        static void main() {
          Flag f = new Flag();
          spawn new Raiser(f);
          f.await();
          Threads.joinAll();
          System.println("raised");
        }
      }
      |}
  in
  check_str "output" "raised\n" (Tl_jvm.Vm.output vm);
  let stats = (Tl_jvm.Vm.scheme vm).Tl_core.Scheme_intf.stats () in
  check "wait inflated or fast" true
    (stats.Tl_core.Lock_stats.wait_ops >= 0 && Tl_core.Lock_stats.total_acquires stats >= 2)

let test_wait_without_lock_errors () =
  match
    run {| class Main { static void main() { Object o = new Object(); o.notify(); } } |}
  with
  | _ -> Alcotest.fail "notify without lock must raise"
  | exception Tl_monitor.Fatlock.Illegal_monitor_state _ -> ()

let test_static_synchronized () =
  let vm =
    run
      {|
      class Registry {
        static synchronized int stamp(int x) { return x + 1; }
      }
      class Main {
        static void main() {
          System.println(Registry.stamp(41));
        }
      }
      |}
  in
  check_str "output" "42\n" (Tl_jvm.Vm.output vm);
  check_int "one sync op on the class lock" 1 (Tl_jvm.Vm.sync_op_count vm)

let test_runtime_errors () =
  let expect_runtime_error src =
    match run src with
    | _ -> Alcotest.fail "expected runtime error"
    | exception (Tl_jvm.Vm.Runtime_error _ | Tl_jvm.Value.Type_error _) -> ()
  in
  expect_runtime_error "class Main { static void main() { int x = 1 / 0; } }";
  expect_runtime_error
    {| class Main { static void main() { Vector v = new Vector(); v.elementAt(0); } } |};
  expect_runtime_error
    {| class Main { static void main() { Object o = null; o.toString(); } } |};
  expect_runtime_error
    {| class Main { static void main() { Hashtable h = new Hashtable(); h.put(new Object(), 1); } } |}

let test_disassembly_smoke () =
  let program =
    Driver.compile_source
      {| class Main { static void main() { System.println(1 + 2); } } |}
  in
  let text = Format.asprintf "%a" Tl_jvm.Classfile.pp_disassembly program in
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
    loop 0
  in
  check "mentions invoke_static" true (contains ~needle:"invoke_static" text);
  check "mentions add" true (contains ~needle:"add" text)

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lex_basics;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "errors" `Quick test_lex_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "class declarations" `Quick test_parse_class;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "compiler",
        [ Alcotest.test_case "static errors" `Quick test_compile_errors ] );
      ( "programs",
        [
          Alcotest.test_case "hello world" `Quick test_hello;
          Alcotest.test_case "arithmetic and control flow" `Quick test_arithmetic_and_control;
          Alcotest.test_case "objects, ctors, dispatch" `Quick test_objects_and_dispatch;
          Alcotest.test_case "synchronized methods count" `Quick
            test_synchronized_method_counts;
          Alcotest.test_case "synchronized block + return releases" `Quick
            test_synchronized_block_and_return;
          Alcotest.test_case "Vector and Hashtable natives" `Quick test_vector_and_hashtable;
          Alcotest.test_case "BitSet jax pattern" `Quick test_bitset_jax_pattern;
          Alcotest.test_case "StringBuffer" `Quick test_stringbuffer;
          Alcotest.test_case "threads under all schemes" `Slow test_threads_shared_counter;
          Alcotest.test_case "wait/notify from the language" `Slow test_wait_notify_natives;
          Alcotest.test_case "notify without lock raises" `Quick test_wait_without_lock_errors;
          Alcotest.test_case "static synchronized" `Quick test_static_synchronized;
          Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
          Alcotest.test_case "disassembly smoke" `Quick test_disassembly_smoke;
        ] );
    ]
