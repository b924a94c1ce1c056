(** The CNFET standard-cell library (and its CMOS reference twin).

    Cells are generated, not drawn: each entry carries the immune layouts
    in both schemes, the CMOS reference layout, and a transistor factory
    for simulation.  Following Section IV, "all the cells in the library
    are designed with reference to the smallest inverter (INV1X)"; drive
    strength [k] scales the base transistor width [k] times. *)

type technology = Cnfet_tech of Device.Cnfet.tech | Cmos_tech of Device.Mosfet.tech

type entry = {
  cell_name : string;  (** e.g. "NAND2_2X" *)
  fn : Logic.Cell_fun.t;
  drive : int;  (** multiple of the INV1X base width *)
  technology : technology;
  scheme1 : Layout.Cell.t;
  scheme2 : Layout.Cell.t;
  width_lambda_base : int;  (** drawn base transistor width *)
}

type t = {
  lib_name : string;
  rules : Pdk.Rules.t;
  pitch_nm : float;
      (** CNT pitch the {!factory} populates devices at; 5 nm, the
          screening-optimal density the paper's comparisons assume, unless
          the builder was given a processing knob *)
  entries : entry list;
}

val base_width_lambda : int
(** Unit transistor width of INV1X (the rules' minimum width). *)

val tubes_for : ?pitch_nm:float -> Device.Cnfet.tech -> rules:Pdk.Rules.t
  -> width_lambda:int -> int
(** Tube count at the given CNT pitch (default 5 nm) for a
    gate of the given drawn width (at least one tube).  [pitch_nm] is the
    processing density knob: sparser growth means fewer tubes under the
    same drawn gate. *)

val factory : t -> Gate_netlist.factory
(** Transistor factory for the library's technology; CNFET widths are
    populated with tubes at the optimal pitch, CMOS pMOS widths are scaled
    by the rules' P/N ratio. *)

val offers : name:string -> drive:int -> (Logic.Cell_fun.t, Core.Diag.t) result
(** Whether {!cnfet} and {!cmos} build cell [name] at [drive] when asked
    for that drive: INV, NAND2, AOI21, OAI21, XOR2 and MUX2 exist at every
    drive, the rest of the catalog at drive 1 only.  An unknown name, a
    drive below 1 ({!Layout.Cell.lookup}) or an absent pair is a [Diag]
    naming the cell and the drive.  Pure: it builds no cell, and the
    library's entries come from the same list. *)

val cnfet : ?tech:Device.Cnfet.tech -> ?rules:Pdk.Rules.t -> ?pitch_nm:float
  -> drives:int list -> unit -> (t, Core.Diag.t) result
(** CNFET library: the cells {!offers} sizes at every one of [drives],
    the rest of the catalog at drive 1.
    [pitch_nm] (default 5 nm) sets the grown CNT pitch the
    factory populates devices at — the DSE engine's density knob.
    Invalid drives, a non-positive pitch (and any cell-construction
    failure) arrive as [Diag] errors. *)

val cnfet_exn : ?tech:Device.Cnfet.tech -> ?rules:Pdk.Rules.t
  -> ?pitch_nm:float -> drives:int list -> unit -> t
(** {!cnfet}, raising [Core.Diag.Failure].  CLI/test boundary shim. *)

val cmos : ?tech:Device.Mosfet.tech -> ?rules:Pdk.Rules.t -> drives:int list
  -> unit -> (t, Core.Diag.t) result

val cmos_exn : ?tech:Device.Mosfet.tech -> ?rules:Pdk.Rules.t
  -> drives:int list -> unit -> t
(** {!cmos}, raising [Core.Diag.Failure].  CLI/test boundary shim. *)

val find : t -> name:string -> drive:int -> (entry, Core.Diag.t) result
(** Look up a cell by name (case-insensitive) and drive; an absent entry
    is a [Diag] error naming the cell and the drives actually present. *)

val find_exn : t -> name:string -> drive:int -> entry
(** {!find}, raising [Core.Diag.Failure].  CLI/test boundary shim. *)

val cell_height_scheme1 : t -> int
(** Standardized scheme-1 cell height: the tallest scheme-1 cell. *)
