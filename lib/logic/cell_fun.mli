(** Catalog of standard-cell logic functions used throughout the paper.

    Every function is of the form [F = (core)'] where [core] is a positive
    expression (the pull-down condition).  Input names follow the paper:
    A, B, C, D with numeric suffixes for the AOI/OAI groups. *)

type t = {
  name : string;
  core : Expr.t;  (** positive pull-down expression; output is its negation *)
  fan_in : int;
}

val inv : t
val nand : int -> t
(** [nand n] for [n >= 1]; [nand 1] degenerates to the inverter. *)

val nor : int -> t
val aoi21 : t
(** [(A1*A2 + B)'] *)

val aoi22 : t
(** [(A1*A2 + B1*B2)'] *)

val aoi31 : t
(** [(A1*A2*A3 + B)'] — the paper's Figure 4 example. *)

val oai21 : t
(** [((A1+A2) * B)'] *)

val oai22 : t
(** [((A1+A2) * (B1+B2))'] *)

val xor2 : t
(** [(A*B + AN*BN)'] — equals [A xor B] when the AN/BN pins are wired to
    the complements of A/B (single-stage CNFET cells are negative-unate,
    so non-unate functions take complemented inputs as explicit pins). *)

val mux2 : t
(** [(S*AN + SN*BN)'] — equals [S ? A : B] under the same complemented-pin
    convention (AN = A', BN = B', SN = S'). *)

val all : t list
(** The Table 1 catalog (INV, NAND2/3, NOR2/3, AOI21/22, OAI21/22, AOI31)
    extended with NAND4/NOR4, AOI211 [(A1*A2 + B + C)'], OAI211
    [((A1+A2) * B * C)'], AOI222 [(A1*A2 + B1*B2 + C1*C2)'], the inverted
    majority (carry) gate MAJ3I [(AB + BC + AC)'], in which the same input
    gates several devices, and the complemented-pin XOR2/MUX2. *)

val find_opt : string -> t option
(** Look up by name (case-insensitive). *)

val find : string -> t
(** Look up by name (case-insensitive). @raise Not_found. *)

val output_expr : t -> Expr.t
(** The realized function [Not core]. *)

val truth : t -> Truth.t
