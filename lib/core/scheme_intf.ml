(** The locking-scheme interface.

    Every implementation — the thin locks of the paper, its Fig. 6
    variants, and the JDK 1.1.1 / IBM 1.1.2 baselines — exposes the
    same five Java monitor operations over heap objects, so workloads,
    tests and benchmarks are scheme-generic.

    Two forms are provided.  The module type {!S} gives direct calls
    (the compiler may inline the fast paths — the paper's "Inline"
    configuration); {!packed} wraps a scheme as a record of closures
    (the paper's "FnCall" configuration), which is what the generic
    harness uses. *)

module type S = Scheme_sig.S

(** What happens to a scheme's fat monitors once they go idle — the
    one thing about a scheme that the storm, the lab and the CLIs
    branch on. *)
type lifecycle =
  | Deflates of Thin.ctx
      (** Header-word thin locks: monitors stay fat until a deflation
          handshake retires them.  The reaper and the feedback
          controller attach to this ctx. *)
  | Evaporates of (unit -> int)
      (** Monitors vanish on their own when a releaser finds them idle
          (CJM's transient table).  The closure counts the entries still
          live, which must be 0 once every lock is released. *)
  | Static  (** nothing to deflate and nothing to census *)

type packed = {
  name : string;
  acquire : Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit;
  release : Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit;
  wait : ?timeout:float -> Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit;
  notify : Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit;
  notify_all : Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> unit;
  holds : Tl_runtime.Runtime.env -> Tl_heap.Obj_model.t -> bool;
  stats : unit -> Lock_stats.snapshot;
  reset_stats : unit -> unit;
  stats_blocks : unit -> int;
      (* per-thread statistics blocks registered so far: the distinct
         thread indices that ever recorded a lock operation *)
  deflate_idle : Tl_heap.Obj_model.t -> bool;
      (* Quiescence-point deflation hook; schemes without a deflatable
         representation keep the default (always [false]). *)
  lifecycle : lifecycle;
  verify : Tl_events.Sink.drained -> Tl_events.Oracle.report;
      (* The oracle call for this scheme's event stream, with its
         protocol and nest-count width. *)
}

(* [verify] defaults to the thin-lock oracle with no depth ceiling: the
   callers that pack a scheme directly pack [Thin]. *)
let pack (type a) ?(deflate_idle = fun _ -> false) ?(lifecycle = Static)
    ?(verify = fun d -> Tl_events.Oracle.check d)
    (module M : S with type ctx = a) (ctx : a) : packed =
  {
    name = M.name;
    acquire = M.acquire ctx;
    release = M.release ctx;
    wait = (fun ?timeout env obj -> M.wait ?timeout ctx env obj);
    notify = M.notify ctx;
    notify_all = M.notify_all ctx;
    holds = M.holds ctx;
    stats = (fun () -> Lock_stats.snapshot (M.stats ctx));
    reset_stats = (fun () -> Lock_stats.reset (M.stats ctx));
    stats_blocks = (fun () -> Lock_stats.block_count (M.stats ctx));
    deflate_idle;
    lifecycle;
    verify;
  }
