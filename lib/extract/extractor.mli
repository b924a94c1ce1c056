(** Post-layout parasitic extraction.

    From a generated cell the extractor reports the lumped capacitance a
    spice deck should add on the output net and on each input pin, plus the
    worst-case series resistance from a rail to the output — the "post
    layout analysis kit" of the design kit, in miniature. *)

type parasitics = {
  out_cap_f : float;  (** extra capacitance on the output net, farads *)
  in_caps_f : (string * float) list;  (** per-input wiring capacitance *)
  rail_res_ohm : float;  (** contact + diffusion series resistance *)
}

val cell : Layout.Cell.t -> parasitics
(** The parasitics under {!Tables.default}. *)

type coupling = {
  a : string;  (** first instance name, placement order *)
  b : string;  (** second instance name *)
  cap_f : float;  (** lateral coupling capacitance, farads *)
}

val couplings : (string * Geom.Rect.t) list -> coupling list
(** Placement-level lateral coupling estimate: for every pair of disjoint
    cell outlines within 4 lambda of each other, metal-1 fringe
    capacitance ({!Tables.default}) over the facing overlap length divided
    by the separation.  Near-linear via {!Geom.Index}; pairs in ascending
    placement order, identical to {!couplings_naive}. *)

val couplings_naive : (string * Geom.Rect.t) list -> coupling list
(** All-pairs reference for {!couplings}; equal output for equal input. *)

val cap_of_rect : Tables.t -> Pdk.Layer.t -> Geom.Rect.t -> float
(** Area plus fringe capacitance of one rectangle on a layer, farads. *)
