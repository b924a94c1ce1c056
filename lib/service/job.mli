(** Typed job descriptions for the design-kit service.

    A job is a self-contained, serializable request for one of the
    kit's heavy workloads: a {!Flow} run (netlist to GDSII), a {!Fault}
    Monte-Carlo campaign, or a {!Characterize} load sweep.  Jobs carry
    everything needed to reproduce the computation — the scheduler's
    result cache is keyed on {!digest}, a stable fingerprint of the
    description. *)

type flow_source =
  | Full_adder  (** the paper's Figure-8 case study *)
  | Ripple of int  (** N-bit ripple-carry adder (flow scaling workload) *)
  | Netlist_text of string  (** inline {!Flow.Netlist_ir.of_string} text *)
  | Generated of string
      (** compact generator spec for {!Flow.Generate.of_spec}, e.g.
          ["mult16"] or ["lfsr32x100"] — large designs without shipping
          the netlist text over the wire *)

type flow_job = {
  source : flow_source;
  scheme : [ `S1 | `S2 ];
  aspect : float;  (** target die aspect ratio *)
}

type fault_job = {
  cell : string;  (** cell-function name, e.g. "NAND2" *)
  drive : int;
  style : Layout.Cell.style;
  trials : int;
  tracks_per_trial : int;
  max_angle_deg : float;
  seed : int;
}

type characterize_job = {
  char_cell : string;
  char_drive : int;
  loads : int list;  (** INV1X load sweep points, in order *)
}

type testgen_job = {
  tg_cell : string;
  tg_drive : int;
  tg_style : Layout.Cell.style;
  tg_scheme : [ `S1 | `S2 ];
  tg_trials : int;
  tg_tracks_per_trial : int;
  tg_max_angle_deg : float;
  tg_seed : int;
  tg_max_spares : int;
  tg_p_good : float;
  tg_max_extra_tubes : int;
}
(** A {!Testgen.Campaign} request: the fault-campaign fields plus the
    repair budgets.  Unlike {!fault_job} the layout style defaults to
    [Vulnerable] — an immune cell has an empty dictionary, which is the
    paper's point but a useless test-generation target. *)

type dse_job = {
  dse_cell : string;
  dse_style : Layout.Cell.style;
  dse_pitches : float list;  (** grown CNT pitch axis, nm *)
  dse_p_metallic : float list;  (** metallic-fraction axis *)
  dse_removal : float list;  (** removal-efficiency axis *)
  dse_drives : int list;
  dse_schemes : [ `S1 | `S2 ] list;
  dse_load : int;
  dse_max_trials : int;
  dse_seed : int;
  dse_adaptive : bool;
}
(** A {!Dse.Engine} Pareto campaign request: the knob-space axes plus
    the evaluation budget.  Like {!testgen_job} the layout style
    defaults to [Vulnerable] — misposition yield is only interesting
    where mispositions can hurt. *)

type t =
  | Flow of flow_job
  | Fault of fault_job
  | Characterize of characterize_job
  | Testgen of testgen_job
  | Dse of dse_job

val flow : ?scheme:[ `S1 | `S2 ] -> ?aspect:float -> flow_source -> t
(** Defaults: [`S2], aspect 1.0. *)

val fault :
  ?drive:int -> ?style:Layout.Cell.style -> ?trials:int ->
  ?tracks_per_trial:int -> ?max_angle_deg:float -> ?seed:int -> string -> t
(** Defaults mirror {!Fault.Injector.default_config} (drive 4, immune-new
    style). *)

val characterize : ?drive:int -> ?loads:int list -> string -> t
(** Defaults: drive 1, loads [[1; 2; 4]]. *)

val testgen :
  ?drive:int -> ?style:Layout.Cell.style -> ?scheme:[ `S1 | `S2 ] ->
  ?trials:int -> ?tracks_per_trial:int -> ?max_angle_deg:float ->
  ?seed:int -> ?max_spares:int -> ?p_good:float -> ?max_extra_tubes:int ->
  string -> t
(** Defaults mirror {!Testgen.Campaign.default_config} (drive 4,
    vulnerable style, scheme s1, 1000 trials, 2 spares, p_good 0.9,
    4 extra tubes). *)

val dse :
  ?style:Layout.Cell.style -> ?pitches:float list -> ?p_metallic:float list ->
  ?removal:float list -> ?drives:int list -> ?schemes:[ `S1 | `S2 ] list ->
  ?load:int -> ?max_trials:int -> ?seed:int -> ?adaptive:bool -> string -> t
(** Defaults mirror {!Dse.Knobs.default_space} and
    {!Dse.Engine.default}: vulnerable style, pitches [4;5;6;8] nm,
    metallic fractions [0.01;0.1;0.33], removal [0.95;0.999], drives
    [1;2], both schemes, load 2, 400 trials, seed 42, adaptive. *)

val fault_config : fault_job -> Fault.Injector.config
(** The campaign configuration a fault job runs as.  Like {!dse_config}
    and {!testgen_config} it is shared by {!validate} (which asks the
    engine about exactly this config) and {!Runner}, so admission control
    and execution can never disagree on semantics. *)

val testgen_config : testgen_job -> Testgen.Campaign.config
(** The campaign configuration a testgen job runs as. *)

val dse_config : dse_job -> Dse.Engine.config
(** The engine configuration a dse job runs as. *)

val kind : t -> string
(** ["flow"], ["fault"], ["characterize"], ["testgen"] or ["dse"] — the
    cache-key prefix and the protocol discriminator. *)

val style_string : Layout.Cell.style -> string
(** {!Layout.Cell.style_string}, the protocol spelling of a style. *)

val scheme_string : [ `S1 | `S2 ] -> string
(** ["s1"] or ["s2"], as {!Layout.Cell.scheme_string} spells the scheme
    {!cell_scheme} names. *)

val cell_scheme : [ `S1 | `S2 ] -> Layout.Cell.scheme
(** The layout scheme a testgen or dse job's scheme tag names. *)

val describe : t -> string
(** One-line human summary for logs and telemetry attributes. *)

val validate : t -> (unit, Core.Diag.t) result
(** Admission-control check, without building a library or a cell.  It
    decides only the service's own budgets, which bound how long one job
    holds the scheduler: fault and testgen [trials] of at most 1000000, a
    dse [max_trials] of at most 20000, a dse fine grid (the product of
    its deduplicated axes) of at most 256 points, at most 16 characterize
    [loads], each load (and a dse [load]) at most 64, a positive finite
    flow aspect, and a non-empty netlist text.  A grid refusal names
    [fine_grid] and the longest axis's member with their counts.  Every
    other rule is asked of its owner on the config {!Runner} runs:
    {!Flow.Ripple_adder.check_bits} (a ripple job's bits),
    {!Flow.Generate.parse} (a generated design spec),
    {!Layout.Cell.lookup} (the cell and the drive of fault and testgen
    jobs),
    {!Stdcell.Library.offers} (the cell at a characterize job's drive and
    at every drive of a dse axis), {!Stdcell.Characterize.check_loads},
    {!Fault.Injector.validate}, {!Testgen.Campaign.validate} and
    {!Dse.Engine.validate}.  Their diagnostics come back with stage
    ["service.job"] and the owner's stage as [origin].  Rejected
    submissions never enter the queue. *)

val digest : t -> string
(** Stable hex fingerprint of the full description; the result-cache
    key.  Float fields enter exactly (in {!Json.to_string}'s shortest
    round-trip form), so jobs differing in any field get different keys.
    A flow job's netlist text enters as its MD5, and the full adder as
    {!Flow.Netlist_ir.digest}. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, Core.Diag.t) result
(** Protocol codec.  [of_json] validates shape only ({!validate} runs at
    submission); unknown [kind]s and missing/ill-typed fields are
    structured diagnostics naming the offending member, and an absent
    optional member takes the default of the constructor above.  Testgen jobs
    spell their members like the other kinds ([scheme] as in flow jobs,
    [style] the layout style as in fault jobs). *)
