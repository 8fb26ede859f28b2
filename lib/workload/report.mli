(** Regeneration of every table and figure in the paper's evaluation
    (§3).  Each function runs the relevant workloads and renders a
    plain-text table/chart; the CLI and the benchmark harness print
    them.

    Scale note: [max_syncs] caps the replayed operations per benchmark
    (traces are scaled down proportionally; the published counts go up
    to 20 M ops). *)

val table1 : ?max_syncs:int -> ?seed:int -> unit -> string
(** Macro-benchmark characterization: paper columns next to the
    measured census of the scaled replay (objects, synchronized
    objects, syncs, syncs per object). *)

val fig3 : ?max_syncs:int -> ?seed:int -> unit -> string
(** Lock-operation nesting-depth distribution per benchmark, measured
    from replay statistics, with the paper's aggregate checks (≥45 %
    first-locks everywhere, ~80 % median). *)

val fig4 : ?iterations:int -> ?schemes:string list -> unit -> string
(** Micro-benchmark times (Table 2 kernels) for ThinLock / IBM112 /
    JDK111, including the MultiSync working-set sweep and the Threads
    contention sweep. *)

val fig5 : ?max_syncs:int -> ?seed:int -> ?benchmarks:string list -> unit -> string
(** Macro-benchmark speedups relative to JDK111.  The per-op
    application work is calibrated per benchmark so that the ThinLock
    column matches Fig. 5 (marked "fitted"); the IBM112 column is then
    a genuine prediction (marked "predicted"). *)

val fig6 : ?iterations:int -> unit -> string
(** Implementation-variant tradeoffs: NOP / Inline / FnCall / ThinLock
    / MP Sync / UnlkC&S on Sync, MixedSync, CallSync and Threads. *)

val characterize : ?max_syncs:int -> ?seed:int -> unit -> string
(** §2's scenario-frequency ranking measured over all benchmark
    traces, plus the lock-word accesses per protocol path counted on
    the shipped [Thin] (the "17 instructions" discussion). *)

val monitor_lifecycle : ?cycles:int -> ?threads:int -> unit -> string
(** The deflation extension's lifecycle census: [threads] threads each
    drive [cycles] inflate/deflate round trips on a private object
    (1-bit nest count, so a shallow nest overflow-inflates cheaply);
    then two churner threads keep inflating while the reaper scans
    concurrently, exercising the non-quiescent path.  Reports
    inflations, deflations (including the non-quiescent count),
    aborted handshakes, reaper scans, slot reuses and live monitors
    from {!Tl_core.Lock_stats} and the monitor table's own counters.
    With slot reclamation working, every monitor ever allocated is
    reclaimed (live = 0) and the table's footprint stays at one slot
    per thread regardless of cycle count. *)

val count_width_ablation : ?max_syncs:int -> ?seed:int -> unit -> string
(** §3.2's conjecture that 2–3 count bits suffice: inflation rates per
    count width over the benchmark traces. *)
