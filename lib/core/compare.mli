(** Area comparison between the new compact immune layouts and the
    etched-region layouts of [6] — the machinery behind Table 1 — plus the
    CNFET-vs-CMOS footprint comparisons of case study 1. *)

type row = {
  cell_name : string;
  size_lambda : int;
  area_new : int;  (** active area of the compact layout, lambda^2 *)
  area_old : int;  (** active area of the etched-region layout *)
  saving_pct : float;  (** (old - new) / old * 100 *)
}

val row : ?rules:Pdk.Rules.t -> Logic.Cell_fun.t -> size:int -> row

val table1 : ?rules:Pdk.Rules.t -> unit -> row list
(** The paper's Table 1: INV, NAND2/NOR2, NAND3/NOR3, AOI22/OAI22,
    AOI21/OAI21 at sizes 3, 4, 6 and 10 lambda. *)

val paper_table1 : (string * (int * float) list) list
(** The published numbers, for side-by-side reporting. *)

type footprint = {
  fp_cell : string;
  cnfet_area : int;
  cmos_area : int;
  gain : float;  (** cmos / cnfet *)
}

val inverter_footprint : ?rules:Pdk.Rules.t -> width:int -> unit -> footprint
(** Case study 1: CNFET vs CMOS inverter footprint at the given nFET
    width (paper: 1.4x at 4 lambda, declining with width). *)
