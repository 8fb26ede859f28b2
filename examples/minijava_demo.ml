(* Mini-Java demo: compile and run a Java-like program — a word-count
   over synchronized library classes, the kind of single-threaded
   library-heavy code the paper says pays the synchronization tax — on
   the bytecode VM under each locking scheme, and compare.

   Run with: dune exec examples/minijava_demo.exe *)

let source =
  {|
  class WordCount {
    Hashtable counts;
    Vector order;
    WordCount() {
      counts = new Hashtable();
      order = new Vector();
    }
    void add(String word) {
      if (!counts.containsKey(word)) {
        counts.put(word, 0);
        order.addElement(word);
      }
      counts.put(word, counts.get(word) + 1);
    }
    void report() {
      for (int i = 0; i < order.size(); i = i + 1) {
        String w = order.elementAt(i).toString();
        System.println(w + ": " + counts.get(w));
      }
    }
  }
  class Main {
    static void main() {
      WordCount wc = new WordCount();
      Random r = new Random();
      r.setSeed(7);
      Vector dictionary = new Vector();
      dictionary.addElement("thin");
      dictionary.addElement("lock");
      dictionary.addElement("monitor");
      dictionary.addElement("inflate");
      dictionary.addElement("java");
      for (int i = 0; i < 5000; i = i + 1) {
        String w = dictionary.elementAt(r.next(dictionary.size())).toString();
        wc.add(w);
      }
      wc.report();
    }
  }
  |}

let () =
  List.iter
    (fun scheme_name ->
      let t0 = Unix.gettimeofday () in
      let vm =
        Tl_lang.Driver.run_source ~scheme_of:(Tl_baselines.Registry.find_exn scheme_name) source
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      let stats = (Tl_jvm.Vm.scheme vm).Tl_core.Scheme_intf.stats () in
      Printf.printf "--- %s: %.3fs, %d sync ops on %d objects ---\n" scheme_name elapsed
        (Tl_core.Lock_stats.total_acquires stats)
        stats.Tl_core.Lock_stats.objects_synchronized;
      if String.equal scheme_name "thin" then print_string (Tl_jvm.Vm.output vm))
    [ "thin"; "jdk111"; "ibm112" ]
