(** The test-generation & repair campaign: one deterministic parallel
    pass over the misposition trials, producing the fault dictionary, the
    distinguishing vector set and the repair curves together.

    The trial stream is {e exactly} the {!Fault.Injector} campaign for
    the same config — strays come from {!Fault.Injector.trial_strays},
    so the dictionary diagnoses the very trials the injector tallies.
    Chunking is pinned to the workload and every per-chunk aggregate
    (signature map, cost histogram) merges associatively, so the whole
    {!result} is {b bit-identical at any [~domains]} — the same contract
    as the injector, extended to the diagnosis layer.

    When {!Telemetry.enabled}, the campaign records a [testgen.campaign]
    span with one [testgen.chunk] child per work chunk, plus counters
    [testgen.trials] and [testgen.failing]. *)

type config = {
  fault : Fault.Injector.config;  (** the misposition campaign to diagnose *)
  max_spares : int;  (** spare-track budget of the repair curve *)
  p_good : float;  (** per-tube survival probability for N-of-M *)
  max_extra_tubes : int;  (** redundancy curve extent beyond N *)
}

val default_config : config
(** {!Fault.Injector.default_config} trials, 2 spares, p_good 0.9,
    4 extra tubes. *)

val validate : config -> (unit, Core.Diag.t) result
(** {!Fault.Injector.validate} on the campaign fields, then a [Diag]
    naming the field on a negative budget or a [p_good] outside [0, 1]. *)

type result = {
  cell : string;
  style : Layout.Cell.style;
  scheme : Layout.Cell.scheme;
  dictionary : Dictionary.t;
  vectors : Vectors.t;
  spare_curve : Repair.spare_point list;
  redundancy : Repair.redundancy_point list;
}

val run :
  ?pool:Parallel.Pool.t -> ?domains:int -> config -> Layout.Cell.t -> result
(** Run the campaign on [domains] OCaml domains (default 1), or on an
    existing [?pool] (the job service's long-lived workers; [domains] is
    then ignored).  Deterministic: the result depends only on [config]
    and the cell, never on [domains], the pool size or scheduling.
    @raise Invalid_argument with the diagnostic's text when {!validate}
    refuses [config]. *)
