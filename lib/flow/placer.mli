(** Standard-cell placement for the two CNFET layout schemes and the CMOS
    reference.

    Scheme 1 places cells in rows of one standardized height (the tallest
    cell of the design), like a CMOS row placer; under-sized cells waste
    the height difference (the paper's Inv4X/Inv9X observation).  Scheme 2
    exploits the free cell heights of CNFET layouts with shelf packing
    (first-fit decreasing height), reaching a better area-utilization
    factor. *)

type placed_cell = {
  inst : Netlist_ir.instance;
  x : int;
  y : int;
  cell_width : int;
  cell_height : int;  (** the cell's own height, not the row height *)
}

type t = {
  scheme : [ `Rows | `Shelves ];
  cells : placed_cell list;
  die_width : int;
  die_height : int;
  cell_area : int;  (** sum of the placed cells' own footprints *)
}

val die_area : t -> int
val utilization : t -> float
(** [cell_area / die_area]. *)

val entry_for : Stdcell.Library.t -> Netlist_ir.instance
  -> (Stdcell.Library.entry, Core.Diag.t) result
(** Library entry matching an instance; an unknown cell/drive pair is a
    [Diag] error naming the instance. *)

val rows : lib:Stdcell.Library.t -> ?aspect:float -> Netlist_ir.t
  -> (t, Core.Diag.t) result
(** Scheme-1 (and CMOS) row placement using the scheme-1 layouts;
    [aspect] is the target width/height ratio of the die.  Errors when an
    instance has no library cell. *)

val shelves : lib:Stdcell.Library.t -> ?aspect:float -> Netlist_ir.t
  -> (t, Core.Diag.t) result
(** Scheme-2 shelf packing using the scheme-2 layouts: cells tallest first
    (ties in netlist order), each on the first shelf, in opening order,
    with room for it, or on a new shelf stacked above the others.  The
    cells are listed shelf by shelf, each shelf's last-placed cell
    first. *)

val wirelength_estimate : t -> Netlist_ir.t -> int
(** Half-perimeter wirelength, in lambda, of every net two or more placed
    cells touch, each cell counted once per net, at its center.  [t] must
    be a placement of the netlist: the nets are read from [t]'s cells. *)
