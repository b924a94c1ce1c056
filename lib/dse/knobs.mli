(** The co-optimization knob space: processing axes x circuit axes.

    A campaign sweeps three {e processing} knobs — grown CNT pitch
    (density), metallic-CNT fraction, removal-process efficiency — against
    three {e circuit} knobs — drive sizing (which fixes tube count under a
    given pitch), and the layout scheme (1: stacked, 2: side-by-side).
    The space is a Cartesian grid over explicit per-axis value lists; a
    point is one cell of that grid, addressed either by a 5-vector of
    per-axis indices or by its row-major ordinal.  The ordinal doubles as
    the {!Parallel.Split_rng} stream of the point, which is what keeps
    every evaluation order (adaptive, exhaustive, any [--domains]) on the
    same per-point random numbers. *)

type space = {
  pitches_nm : float array;  (** grown CNT pitch, ascending *)
  p_metallic : float array;  (** metallic fraction, ascending *)
  removal_eff : float array;  (** removal efficiency, ascending *)
  drives : int array;  (** drive multiples of INV1X, ascending *)
  schemes : Layout.Cell.scheme array;  (** Scheme1 before Scheme2 *)
}

type point = {
  pitch_nm : float;
  p_metallic : float;
  removal_eff : float;
  drive : int;
  scheme : Layout.Cell.scheme;
}

val default_space : space
(** The paper-motivated sweep: pitches 4-8 nm around the screening
    optimum, metallic fractions from a clean 1% up to the natural 1/3,
    two removal efficiencies, drives 1 and 2, both schemes. *)

val canonical : space -> space
(** Each axis sorted ascending with duplicates removed — the form every
    engine entry point normalizes to, so axis neighbours are meaningful. *)

val validate : space -> (unit, Core.Diag.t) result
(** Every axis non-empty; pitches positive and finite; fractions within
    [0, 1]; drives at least 1.  Errors name the offending axis/value. *)

val axes : space -> int array
(** Per-axis sizes, in order: pitch, metallic, removal, drive, scheme. *)

val card : space -> int
(** Total number of grid points, [product (axes space)]. *)

val ordinal : space -> int array -> int
(** Row-major linear index of an index vector (axis order of {!axes}).
    @raise Invalid_argument when the vector is out of range. *)

val point_of_index : space -> int array -> point
(** The knob values at an index vector.
    @raise Invalid_argument when the vector is out of range. *)

val index_of_ordinal : space -> int -> int array
(** Inverse of {!ordinal}. @raise Invalid_argument when out of range. *)

val level_indices : int -> int -> int list
(** [level_indices n level] is the refinement-level index set of one axis
    of size [n]: multiples of [2^level] in [0, n-1] plus the endpoint
    [n-1], sorted ascending.  Level sets are {e nested} — the level-[l]
    set contains the level-[l+1] set — which is what makes adaptive
    refinement reuse every coarse evaluation.  Level 0 is the full axis.
    @raise Invalid_argument when [n <= 0] or [level < 0]. *)

val max_level : space -> int
(** The coarsest useful level: the smallest [l] whose {!level_indices}
    reduce every axis to its endpoints. *)
