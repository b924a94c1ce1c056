(** Cell characterization through the transient simulator.

    For every input pin the cell is sensitized (side inputs held at values
    that make the output follow the pin), driven with a pulse, and loaded
    with a number of INV1X gates of the same library — the sizing
    methodology of Section IV.A.  Results feed the Liberty-style export
    and the case-study comparisons. *)

type arc = {
  input : string;
  load_inv1x : int;
  rise_delay_s : float;  (** input edge to rising output, 50%-50% *)
  fall_delay_s : float;
  avg_delay_s : float;
  energy_per_cycle_j : float;
}

val sensitize : Logic.Cell_fun.t -> input:string -> (string * bool) list
(** Side-input values under which the output toggles when [input] toggles.
    @raise Not_found when the input cannot control the output. *)

val arc : ?variation:Device.Variation.sampler -> lib:Library.t
  -> Library.entry -> input:string -> load_inv1x:int
  -> (arc, Core.Diag.t) result
(** Simulate one pin.  A negative [load_inv1x] is a [Diag] error naming
    the load (the one load check, which {!all_arcs} and {!sweep} share),
    as is an output that never switches, naming the cell and the pin.

    [?variation] injects a {e prepared} variation sampler (one
    {!Device.Variation.prepare_sampler} per device geometry, shared by
    every arc) whose slow-corner derate multiplies the measured delays —
    the arc never re-derives device statistics itself.  Without the
    argument the result is byte-identical to the pre-sampler code path
    (pinned by a golden test); a {!Device.Variation.neutral_sampler}
    (derate exactly 1.0) is also byte-identical. *)

val all_arcs : ?variation:Device.Variation.sampler -> lib:Library.t
  -> Library.entry -> load_inv1x:int -> (arc list, Core.Diag.t) result
(** One arc per input pin; the first failing pin aborts with its error. *)

val all_arcs_exn : ?variation:Device.Variation.sampler -> lib:Library.t
  -> Library.entry -> load_inv1x:int -> arc list
(** {!all_arcs}, raising [Core.Diag.Failure].  CLI/test boundary shim. *)

val check_loads : cell:string -> int list -> (unit, Core.Diag.t) result
(** The load-sweep rule {!sweep} applies before it simulates anything: a
    non-empty sweep of non-negative INV1X loads.  The error names [cell]
    and, for a negative point, the load. *)

val sweep : ?pool:Parallel.Pool.t -> ?variation:Device.Variation.sampler
  -> lib:Library.t -> Library.entry
  -> loads:int list -> ((int * arc list) list, Core.Diag.t) result
(** Characterize the cell at every load point, in the order given:
    [(load, arcs)] per point.  A zero load measures the unloaded cell
    (only its own parasitics); a sweep {!check_loads} refuses is a [Diag]
    error naming the offending point.  With [?pool] the points are
    simulated in parallel on the given {!Parallel.Pool}; results (and the
    first error, in sweep order) are identical at any pool size, since
    each point is a pure function of the load. *)

val worst_delay : arc list -> float
val total_energy : arc list -> float
(** Mean switching energy over the arcs. *)
