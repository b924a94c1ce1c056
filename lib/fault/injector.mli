(** Misposition fault-injection campaigns on complete cells.

    Each trial sprays a number of mispositioned CNTs over the PUN and PDN
    regions of a cell, rebuilds the switch-level conduction graph (nominal
    rows plus stray edges) and compares the resulting ternary truth table
    with the intended function.  This reproduces the Fig. 2 experiment:
    vulnerable layouts fail (typically by shorting a rail to the output),
    immune layouts never do.

    Campaigns run on the {!Parallel.Pool} engine.  Every trial derives its
    RNG from [(seed, trial index)] via {!Parallel.Split_rng}, and the
    per-chunk tallies are integer sums, so for a fixed [config] the
    {!outcome} is {b bit-identical for every [~domains] value} — the
    serial [~domains:1] path runs the very same per-trial code. *)

type config = {
  trials : int;  (** Monte-Carlo sample count; must be positive *)
  tracks_per_trial : int;
      (** stray CNTs per network region per trial; must be non-negative
          (0 measures the nominal layout only) *)
  max_angle_deg : float;
  margin : float;  (** vertical overshoot allowed around each region *)
  seed : int;  (** campaign seed; same seed, same outcome *)
}

val default_config : config

val validate : config -> (unit, Core.Diag.t) result
(** A [Diag] naming the offending field when [trials <= 0],
    [tracks_per_trial < 0] or [max_angle_deg] is not a finite angle in
    [0, 90] — a campaign that would silently loop zero times, or spray NaN
    tracks that cross nothing, is a configuration bug, not an immunity
    proof.  The job service admits fault and testgen jobs through it. *)

type outcome = {
  trials : int;
  functional_failures : int;  (** trials whose truth table deviates *)
  shorted_trials : int;  (** trials with an X (fight or float) output row *)
  fight_trials : int;
      (** trials with a rail-fight row (Out connected to Vdd {e and} Gnd
          — the Fig. 2 short).  Additive stray CNTs can only ever create
          these, so under misposition campaigns
          [fight_trials = shorted_trials]. *)
  float_trials : int;
      (** trials with a floating row (Out connected to neither rail — an
          open).  Always 0 under misposition campaigns, nonzero once a
          fault model removes conduction; tallied separately so the
          distinction is observable either way. *)
  stray_edges : int;  (** total stray conduction edges injected *)
}

val failure_rate : outcome -> float

val trial_strays : config -> pun:Crossing.prepared -> pdn:Crossing.prepared
  -> int -> Logic.Switch_graph.edge list list
     * Logic.Switch_graph.edge list list
(** The stray CNTs trial [index] sprays over the two regions, grouped
    {e per track} (one inner list per sampled CNT, in sampling order;
    tracks missing every contact contribute an empty group).  This is
    exactly the stray set whose flattened edges the campaign evaluates,
    so a diagnosis layer (fault dictionaries, repair search) replays the
    very trials {!run} tallies.  Deterministic in [(config.seed, index)]. *)

val run_trial : config -> prep:Layout.Cell.prepared -> pun:Crossing.prepared
  -> pdn:Crossing.prepared -> int -> bool * bool * bool * int
(** Evaluate one trial against a prepared cell:
    [(failed, fight, floating, stray_edges)].  This is the exact per-trial
    predicate {!run} tallies — spray {!trial_strays}, rebuild the drives,
    compare with the reference truth — exposed so adaptive campaigns (the
    DSE engine's early-stopped yield estimates) can consume trials one
    batch at a time while staying bit-identical to a full {!run} over the
    same indices.  Deterministic in [(config.seed, index)]. *)

val run : ?pool:Parallel.Pool.t -> ?domains:int -> config -> Layout.Cell.t
  -> outcome
(** Monte-Carlo campaign over the cell, on [domains] OCaml domains
    (default 1, i.e. serial).  When [?pool] is given the campaign runs on
    that existing pool instead of spawning one ([domains] is then
    ignored) — the job service reuses its long-lived workers this way.
    Fabric geometry and the nominal row graph are precomputed once and
    shared read-only across the workers.  Deterministic: the outcome
    depends only on [config], never on [domains], the pool size or
    scheduling.

    When {!Telemetry.enabled}, the campaign records a [fault.campaign]
    span with one [fault.chunk] child per work chunk (chunking is pinned
    to [config.trials], so the span tree is identical at any [domains]),
    plus counters [fault.trials], [fault.crossings_tested]
    ([= 2 * tracks_per_trial * trials], one per region crossing query)
    and [fault.<style>.immune] / [fault.<style>.failed] keyed by the
    cell's layout style.
    @raise Invalid_argument with the diagnostic's text when {!validate}
    refuses [config]. *)

val horizontal_sweep : Layout.Cell.t -> (unit, float list) result
(** Deterministic immunity check for zero-angle strays: one representative
    track per vertical corridor (bands delimited by every distinct item
    boundary) in each region; returns the offending y-coordinates if any
    corridor breaks the function.  [Ok ()] proves immunity against all
    horizontal mispositioned CNTs. *)
