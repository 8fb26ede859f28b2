(** Name → scheme constructors for the harness and the CLI.

    Includes the three implementations the paper measures against each
    other ([thin], [jdk111], [ibm112]), the Fig. 6 thin-lock variants,
    and the extra baselines.  The storm, the lab, the replayers and the
    CLIs take an {!entry} and nothing else: what they need to know
    about a scheme — its lifecycle, its oracle, how it runs a critical
    section — is on the packed record the entry builds
    ([Tl_core.Scheme_intf.packed]). *)

type entry = {
  name : string;
  describe : string;  (** one line for listings *)
  make :
    ?events:Tl_events.Sink.t ->
    ?count_width:int ->
    Tl_runtime.Runtime.t ->
    Tl_core.Scheme_intf.packed;
      (** A fresh scheme on the runtime.  [events] attaches a lock-event
          sink and [count_width] overrides the thin nest-count width
          (the lab's overflow pressure); schemes with no nest count
          ignore it. *)
}

val names : unit -> string list
(** All registered scheme names. *)

val find : string -> entry option

val find_entry_exn : string -> entry
(** @raise Invalid_argument on an unknown name (message lists the
    known ones). *)

val find_exn : string -> Tl_runtime.Runtime.t -> Tl_core.Scheme_intf.packed
(** [(find_entry_exn name).make runtime]. *)

val describe : string -> string option
(** One-line description of a scheme. *)

val paper_trio : string list
(** [["jdk111"; "ibm112"; "thin"]] — the three systems of §3. *)
