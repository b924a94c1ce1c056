(** Job execution: the one place a {!Job.t} meets an engine.

    Every job kind has a typed entry point that returns the engine's own
    result; {!run} builds the served JSON document from that same result,
    and the CLI prints from it, so the two cannot disagree on what a job
    computes.  No entry point runs {!Job.validate}: the scheduler admits
    a job before it queues, the CLI before it runs.

    Runners never raise — a served job must not kill a scheduler worker —
    so every library exception surfacing from the kit ([Core.Diag.Failure]
    shims, [Invalid_argument] validation, solver [Failure]s) is caught and
    folded into the [Error] branch.  Jobs are pure functions of their
    description: result documents contain no wall-clock readings, which is
    what lets replay-mode completions compare bit-for-bit at any pool
    size. *)

val fault :
  pool:Parallel.Pool.t ->
  Job.fault_job ->
  (Layout.Cell.t * Fault.Injector.outcome, Core.Diag.t) result
(** The scheme-1 cell under test and its misposition campaign,
    map-reduced on [pool]. *)

val testgen :
  pool:Parallel.Pool.t ->
  Job.testgen_job ->
  (Testgen.Campaign.result, Core.Diag.t) result

val characterize :
  pool:Parallel.Pool.t ->
  Job.characterize_job ->
  ( Stdcell.Library.entry * (int * Stdcell.Characterize.arc list) list,
    Core.Diag.t )
  result
(** The CNFET library entry and its arcs at every load point, in sweep
    order; the points fan out on [pool]. *)

val dse :
  pool:Parallel.Pool.t ->
  Job.dse_job ->
  (Dse.Engine.outcome, Core.Diag.t) result

type flow_run = {
  outcome : (Flow.Pipeline.result_t, Core.Diag.t) result;
  report : Core.Pass.report;  (** the passes that ran, also on error *)
}

val flow :
  ?pass_cache:Core.Pass.cache ->
  ?trace:(Core.Pass.trace_event -> unit) ->
  Job.flow_job ->
  (flow_run, Core.Diag.t) result
(** Resolve the source, build the library the design needs and run the
    staged pipeline.  The [Error] branch is a failure before any pass ran
    (an unknown design spec, say); a failing pass is the run's
    [outcome].  Jobs sharing a design source and a [pass_cache] skip the
    unchanged upstream passes even when their result digests differ. *)

val testgen_json : Testgen.Campaign.result -> Json.t
(** The testgen result document, which the CLI's [test-gen --json] also
    prints.  Pure function of the campaign result. *)

val dse_json : Dse.Engine.outcome -> Json.t
(** The dse result document, which the CLI's [dse --report json] also
    prints.  Carries the front (each point with its knobs, tube count,
    delay/energy/yield + Wilson bounds, trials and footprint) plus the
    evaluation tally: [fine_grid], [evaluated], [pruned], [rounds],
    [trials].  Pure function of the outcome. *)

val run :
  pool:Parallel.Pool.t ->
  pass_cache:Core.Pass.cache ->
  Job.t ->
  (Json.t, Core.Diag.t) result
(** Execute the job through its typed entry point and build its served
    document. *)
