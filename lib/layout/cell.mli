(** Complete standard cells: a PUN and a PDN fabric assembled under one of
    the paper's two layout schemes.

    Scheme 1 stacks the PUN above the PDN with a routing channel between
    them (CMOS-like; channel width set by the input-pin size, 6 lambda,
    instead of the 10 lambda n-to-p diffusion spacing of CMOS).  Scheme 2
    places the PUN and the PDN side by side, shrinking the cell height —
    the novel CNFET-specific arrangement of Section IV. *)

type style =
  | Immune_new  (** the paper's compact Euler-strip layouts *)
  | Immune_old  (** etched-region layouts of Patil et al. [6] *)
  | Vulnerable  (** no isolation: Fig. 2(b) baseline *)
  | Cmos  (** reference CMOS cell under 65nm rules *)

type scheme = Scheme1 | Scheme2

val style_string : style -> string
(** ["new"], ["old"], ["vulnerable"] or ["cmos"]: the one spelling of a
    style, shared by the CLI's style flags, the job protocol and every
    report. *)

val styles : (string * style) list
(** Every style with its {!style_string}, in declaration order. *)

val scheme_string : scheme -> string
(** ["s1"] or ["s2"]: the one spelling of a scheme in reports and job
    documents. *)

type t = {
  name : string;
  fn : Logic.Cell_fun.t;
  style : style;
  scheme : scheme;
  rules : Pdk.Rules.t;
  drive : int;  (** base transistor width in lambda *)
  pun : Fabric.t;  (** placed in cell coordinates *)
  pdn : Fabric.t;
  width : int;
  height : int;
}

val lookup : name:string -> drive:int -> (Logic.Cell_fun.t, Core.Diag.t) result
(** The catalog function a job or a command line names, checked against
    {!make}'s drive bound: an unknown name or a drive below 1 is a [Diag]
    naming the cell.  Pure — it builds nothing — so admission control can
    ask it before any work is queued. *)

val make : rules:Pdk.Rules.t -> fn:Logic.Cell_fun.t -> style:style
  -> scheme:scheme -> drive:int -> (t, Core.Diag.t) result
(** Build the cell.  [drive] is the base (unit-path) transistor width in
    lambda and must be at least 1; series paths are widened per
    {!Sizing.widths}.  CMOS cells draw pMOS [cmos_pn_ratio] times wider
    than nMOS and use the CMOS PUN/PDN separation.  Errors (invalid drive,
    fabric construction failures) arrive as [Diag] values. *)

val make_exn : rules:Pdk.Rules.t -> fn:Logic.Cell_fun.t -> style:style
  -> scheme:scheme -> drive:int -> t
(** {!make}, raising [Core.Diag.Failure] on error.  Thin shim for the CLI
    boundary, tests and benches. *)

val active_area : t -> int
(** PUN + PDN active area including via overheads — the Table 1 metric. *)

val footprint_area : t -> int
(** Cell footprint: width times height of the assembled cell (active bands
    plus the inter-network channel) — the case-study area metric. *)

val pins : t -> (string * Geom.Rect.t) list
(** Input pin markers, one per input, in the routing channel. *)

val truth_with : t -> pun_extra:Logic.Switch_graph.edge list
  -> pdn_extra:Logic.Switch_graph.edge list -> Logic.Truth.t
(** Output of the cell's conduction graph over its inputs: nominal CNT
    rows of both fabrics plus extra (stray-CNT) edges per network region.
    Internal nodes of the two fabrics live in disjoint namespaces. *)

val reference_truth : t -> Logic.Truth.t
(** The intended function [Not core]. *)

type prepared
(** Per-cell state that is invariant across fault-injection trials: the
    nominal row edges of both fabrics (internal namespaces already made
    disjoint), the input list and the reference truth table.  Immutable,
    hence safe to share read-only across domains. *)

val prepare : t -> prepared

val prepared_reference : prepared -> Logic.Truth.t
(** Cached {!reference_truth}. *)

val prepared_inputs : prepared -> string list
(** Input names of the cell, in {!Logic.Truth} row order. *)

val truth_of_prepared : prepared
  -> pun_tracks:Logic.Switch_graph.edge list list
  -> pdn_tracks:Logic.Switch_graph.edge list list -> Logic.Truth.t
(** {!truth_with} against the cached nominal edges, with the extra edges
    of each region given in groups (one per stray track, as the fault
    injector samples them): equal output to {!truth_with} on the
    concatenated groups, without rebuilding the row graphs or
    concatenating the groups. *)

val drives_of_prepared : prepared
  -> pun_tracks:Logic.Switch_graph.edge list list
  -> pdn_tracks:Logic.Switch_graph.edge list list
  -> Logic.Switch_graph.drive array
(** {!Logic.Switch_graph.drive_table} of the corrupted graph over
    {!prepared_inputs} — like {!truth_of_prepared} but keeping rail fights
    and floating outputs apart, which is what fault diagnosis classifies
    on. *)

val check_function : t -> (unit, string) result
(** Verify that nominal CNT rows of both fabrics realize the intended cell
    function (switch-level, exhaustive over input assignments). *)

val layers : t -> (Pdk.Layer.t * Geom.Region.t) list
(** Geometry per layer for GDSII export. *)
