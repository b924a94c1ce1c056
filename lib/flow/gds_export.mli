(** Stream a placed design out to GDSII. *)

val placement : lib:Stdcell.Library.t
  -> scheme:[ `S1 | `S2 ] -> name:string -> Placer.t
  -> (string, Core.Diag.t) result
(** The GDSII stream of the placed design: library [name], one top
    structure [name ^ "_top"] holding every instance's rectangles
    translated to die coordinates, then one structure per referenced
    cell.  The top structure groups its rectangles by layer, layers in
    order of last occurrence (the last instance's last layer first), each
    layer's rectangles in placement order; the cell structures follow in
    first-reference order.

    Errors when a placed instance has no library cell, or when a library
    or structure name does not fit a record's 16-bit length field (the
    diagnostic names the record, the name and the length). *)
