(** CNT process-variation analysis.

    The paper (Section I) lists diameter and doping variations as the
    lesser CNFET imperfections — they modulate drive current rather than
    logic function.  This module quantifies that: tube diameters are drawn
    from a normal distribution, each tube's threshold follows its band gap,
    and the device's on-current spread is reported, feeding a delay-spread
    estimate for gates built from such devices. *)

type spec = {
  mean_diameter_nm : float;
  sigma_diameter_nm : float;  (** growth-process spread (~0.1-0.2 nm) *)
  pitch_variation_frac : float;  (** relative pitch jitter *)
  samples : int;
  seed : int;
}

val default_spec : spec

type stats = {
  mean : float;
  sigma : float;
  p5 : float;
  p95 : float;
}

val gaussian : Random.State.t -> mean:float -> sigma:float -> float
(** Box–Muller sample. *)

val on_current_stats : ?domains:int -> Cnfet.tech -> spec -> tubes:int
  -> width_nm:float -> stats
(** Monte-Carlo distribution of the device on-current when every tube has
    its own diameter (hence threshold) and the pitch jitters.  Runs on
    [domains] OCaml domains (default 1); every sample derives its RNG from
    [(seed, sample index)] via {!Parallel.Split_rng}, so the stats are
    bit-identical for every [domains] value.
    @raise Invalid_argument when [spec.samples <= 0]. *)

val delay_spread_estimate : ?domains:int -> Cnfet.tech -> spec -> tubes:int
  -> width_nm:float -> float
(** Relative gate-delay sigma, [sigma_I / mean_I] to first order (delay is
    inversely proportional to drive at fixed load). *)

type sampler = {
  tubes : int;
  width_nm : float;  (** the device geometry the stats were drawn for *)
  stats : stats;
  slow_derate : float;
      (** slow-corner delay multiplier, [mean_I / p5_I] clamped to >= 1
          (delay is inversely proportional to drive at fixed load) *)
}
(** A {e prepared} variation sampler: the Monte-Carlo on-current stats of
    one device geometry, computed once and shared across every
    characterization arc of the cell built from it.  Consumers
    ({!Stdcell.Characterize}) apply [slow_derate] instead of re-deriving
    device statistics per arc. *)

val prepare_sampler : ?domains:int -> Cnfet.tech -> spec -> tubes:int
  -> width_nm:float -> sampler
(** Run {!on_current_stats} once and package it as a sampler.  Same
    determinism contract: bit-identical at any [domains]. *)

val neutral_sampler : tubes:int -> width_nm:float -> sampler
(** A sampler whose derate is exactly 1.0 — characterization under it is
    byte-identical to characterization without any sampler (the golden
    test pins this). *)
