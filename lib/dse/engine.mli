(** The design-space-exploration engine: Pareto campaigns over
    processing x circuit knobs.

    Every grid point of a {!Knobs.space} is evaluated on three objectives
    — worst-case delay, mean switching energy (both from
    {!Stdcell.Characterize} under a prepared {!Device.Variation} sampler),
    and functional yield (closed-form metallic-CNT survival from
    {!Fault.Metallic} composed with a Monte-Carlo misposition campaign on
    {!Fault.Injector}) — and the mutually non-dominated set is returned.

    {2 How evaluations are saved}

    Two mechanisms cut the work without changing the answer:

    - {b Adaptive grid refinement}: the sweep starts on the coarsest
      nested sub-grid (every axis reduced to its endpoints, so all corner
      combinations are covered), then repeatedly evaluates the
      one-axis-at-a-time neighbours of the current front on the
      next-finer level until level 0 reaches a fixpoint.  Level sets are
      nested, so no coarse evaluation is ever thrown away.
    - {b Early-stopped yield trials}: a point's misposition campaign runs
      in batches and stops as soon as (a) its scaled Wilson interval is
      narrower than [eps] — a {e point-pure} rule, shared verbatim by the
      exhaustive path — or (b) its {e certainty} upper bound (all
      remaining trials succeed) falls below the best front yield at no
      worse delay and energy, each bar discounted by its {e noise band}:
      the gap between the bar point's sampled yield and its own Wilson
      upper bound, capped at [margin].  A bar whose MC draw came in high
      can otherwise prune (and hide from the refinement walk) a
      challenger the exhaustive front keeps — the §5i near-tie caveat.
      The same band seeds the refinement walk: a point within its band
      of being non-dominated still has its neighbours explored.  On
      deterministic (immune-style) campaigns every band is exactly 0, so
      the noise machinery changes nothing there.

    {2 Determinism}

    Point ordinals double as {!Parallel.Split_rng} streams, trial batches
    pin their chunk size to the batch, and points are evaluated in a
    deterministic order — so for a fixed config the outcome is
    bit-identical at any [~domains], and front points carry bit-identical
    values under adaptive and exhaustive evaluation.  Each round first
    characterizes its uncached (pitch, drive) keys in parallel; a key's
    result depends only on (cell, pitch, drive, load, seed), and a failed
    key is raised only when evaluation order reaches it, so the first
    error is the same at any [~domains] too. *)

type config = {
  cell : string;  (** catalog cell name, e.g. "NAND2" *)
  style : Layout.Cell.style;  (** misposition-layout style under test *)
  space : Knobs.space;
  load : int;  (** INV1X fan-out loading every characterization arc *)
  max_trials : int;  (** misposition MC budget per point *)
  min_trials : int;  (** trials before the precision stop may fire *)
  batch : int;  (** trials evaluated between stop-rule checks *)
  z : float;  (** Wilson interval z-score *)
  eps : float;  (** precision stop: scaled CI half-width target *)
  margin : float;
      (** cap on the per-point noise band [min margin (yield_hi - yield)]
          used to discount certainty-prune bars and to widen the
          refinement walk's seed set (>= 0; 0 restores the pre-band
          greedy walk, keep >= 2 eps to cover MC near-ties) *)
  variation_samples : int;  (** MC samples behind each prepared sampler *)
  seed : int;
  adaptive : bool;  (** refinement + front pruning; off = full fine grid *)
}

val default : cell:string -> config
(** Vulnerable style over {!Knobs.default_space}: load 2, 400 trials max
    (min 40, batches of 40), z = 3, eps = 0.02, margin = 0.04, 400
    variation samples, seed 42, adaptive on. *)

type eval = {
  point : Knobs.point;
  ordinal : int;  (** row-major fine-grid index, also the RNG stream *)
  tubes : int;  (** grown tubes under the widest (unit-path) gate *)
  area_lambda2 : int;  (** cell footprint at this drive and scheme *)
  delay_ps : float;  (** worst arc delay at the slow variation corner *)
  energy_fj : float;  (** mean switching energy over the arcs *)
  metallic_yield : float;  (** closed-form metallic-CNT survival *)
  yield_ : float;  (** metallic_yield x misposition MC survival *)
  yield_lo : float;  (** scaled Wilson interval on [yield_] *)
  yield_hi : float;
  trials : int;  (** misposition trials actually spent *)
  pruned : bool;  (** stopped by the certainty rule: provably dominated *)
}

type outcome = {
  cell : string;
  style : Layout.Cell.style;
  adaptive : bool;
  fine_grid : int;  (** {!Knobs.card} of the (canonical) space *)
  rounds : int;  (** refinement rounds run (1 when exhaustive) *)
  trials_total : int;
  evaluated : eval list;  (** in evaluation order *)
  front : eval list;  (** non-dominated subset, evaluation order *)
}

val objectives : eval -> float array
(** [delay_ps; energy_fj; -. yield_] — all minimized; the vector
    {!Pareto.front} ranks on. *)

val wilson : z:float -> n:int -> successes:int -> float * float
(** Wilson score interval for a binomial proportion, clamped to [0, 1].
    @raise Invalid_argument when [n <= 0]. *)

val validate : config -> (unit, Core.Diag.t) result

val run : ?pool:Parallel.Pool.t -> ?domains:int -> config
  -> (outcome, Core.Diag.t) result
(** Run the campaign.  With [?pool] the per-round characterization and
    the misposition batches run on that existing pool ([domains],
    default 1, is then ignored).  Records a
    [dse.campaign] span with one [dse.round] child per refinement round,
    counters [dse.points] / [dse.trials] / [dse.pruned] and gauge
    [dse.front_size] when {!Telemetry.enabled}. *)
