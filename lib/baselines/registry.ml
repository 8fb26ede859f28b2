open Tl_core
module Fatlock = Tl_monitor.Fatlock
module Oracle = Tl_events.Oracle

type entry = {
  name : string;
  describe : string;
  make :
    ?events:Tl_events.Sink.t -> ?count_width:int -> Tl_runtime.Runtime.t -> Scheme_intf.packed;
}

let thin name config ?events ?count_width runtime =
  let config =
    match count_width with Some count_width -> { config with Thin.count_width } | None -> config
  in
  let ctx = Thin.create_with ~config ?events runtime in
  let verify d = Oracle.check ~count_width:config.Thin.count_width d in
  {
    (Scheme_intf.pack ~deflate_idle:(Thin.deflate_idle ctx) ~lifecycle:(Deflates ctx) ~verify
       (module Thin) ctx)
    with
    name;
  }

let cjm ?events ?count_width:_ runtime =
  let ctx = Tl_cjm.Cjm.create_with ?events runtime in
  Scheme_intf.pack
    ~lifecycle:(Evaporates (fun () -> Tl_cjm.Cjm.live_entries ctx))
    ~verify:(Oracle.check ~protocol:Oracle.Cjm)
    (module Tl_cjm.Cjm) ctx

(* The baselines: every object is a monitor from the start, so their
   streams follow the monitor-only protocol.  They have no nest-count
   field to narrow. *)
let monitor_verify = Oracle.check ~protocol:Oracle.Monitor

let plain (type a) (module M : Scheme_intf.S with type ctx = a)
    (create : Tl_events.Sink.t option -> Tl_runtime.Runtime.t -> a) ?events ?count_width:_
    runtime =
  Scheme_intf.pack ~verify:monitor_verify (module M) (create events runtime)

let fat name backend ?events ?count_width:_ runtime =
  {
    (Scheme_intf.pack ~verify:monitor_verify (module Fat_only)
       (Fat_only.create_with ~backend ?events runtime))
    with
    name;
  }

let entry name describe make = { name; describe; make }
let thin_entry name describe config = entry name describe (thin name config)
let fat_entry name describe backend = entry name describe (fat name backend)

let table =
  let d = Thin.default_config in
  [
    thin_entry "thin" "thin locks, paper's final configuration" d;
    thin_entry "thin-unlkcas" "thin locks releasing with compare-and-swap (Fig. 6 UnlkC&S)"
      { d with unlock_with_cas = true };
    thin_entry "thin-mpsync" "thin locks with an extra fence per operation (Fig. 6 MP Sync)"
      { d with extra_fence = true };
    thin_entry "thin-busy" "thin locks with pure busy-wait contention spinning"
      { d with backoff_policy = Tl_runtime.Backoff.Busy };
    thin_entry "thin-yield" "thin locks spinning with yields but never sleeping"
      { d with backoff_policy = Tl_runtime.Backoff.Yield };
    thin_entry "thin-count2" "thin locks with a 2-bit nest count (count-width ablation, §3.2)"
      { d with count_width = 2 };
    thin_entry "thin-count4" "thin locks with a 4-bit nest count" { d with count_width = 4 };
    thin_entry "thin-nostats" "thin locks without statistics recording (pure-time runs)"
      { d with record_stats = false };
    thin_entry "thin-hapax"
      "thin locks inflating to FIFO ticket-admission monitors (Hapax contended path)"
      { d with fat_backend = Fatlock.Hapax };
    entry "jdk111" "Sun JDK 1.1.1 port: global monitor cache with recycling"
      (plain (module Jdk111) (fun events runtime -> Jdk111.create_with ?events runtime));
    entry "ibm112" "IBM JDK 1.1.2: 32 hot locks over a monitor cache"
      (plain (module Ibm112) (fun events runtime -> Ibm112.create_with ?events runtime));
    entry "cjm" "Compact Java Monitors: headerless, transient hash-table monitors" cjm;
    fat_entry "fat" "always-inflated control: a dedicated fat monitor per object" Fatlock.Parker;
    fat_entry "fat-hapax" "always-inflated control over FIFO ticket-admission monitors"
      Fatlock.Hapax;
    entry "mcs" "MCS queue locks with monitor semantics layered on top (§4.1)"
      (plain (module Mcs) (fun events runtime -> Mcs.create_with ?events runtime));
    entry "nosync" "no locking at all (Fig. 6 NOP; not a correct monitor!)"
      (plain (module Nosync) (fun events runtime -> Nosync.create_with ?events runtime));
  ]

let names () = List.map (fun e -> e.name) table
let find name = List.find_opt (fun e -> String.equal e.name name) table

let find_entry_exn name =
  match find name with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "unknown scheme %S (known: %s)" name (String.concat ", " (names ())))

let find_exn name runtime = (find_entry_exn name).make runtime
let describe name = Option.map (fun e -> e.describe) (find name)

let paper_trio = [ "jdk111"; "ibm112"; "thin" ]
