(** Regions: finite unions of axis-aligned rectangles.

    Regions are the workhorse for layout area accounting: a layer of a cell
    is a region, and the paper's Table 1 compares exact region areas of two
    layout styles.  The representation is a list of possibly-overlapping
    rectangles; {!area} computes the measure of the union exactly via a
    sweep over the distinct x-coordinates. *)

type t

val empty : t
val of_rect : Rect.t -> t
val of_rects : Rect.t list -> t
val rects : t -> Rect.t list
(** The underlying rectangles (possibly overlapping, in insertion order). *)

val union : t -> t -> t
val translate : dx:int -> dy:int -> t -> t
val is_empty : t -> bool

val area : t -> int
(** Exact area of the union in lambda^2 (overlaps counted once). *)

val bbox : t -> Rect.t

val intersects_rect : t -> Rect.t -> bool
(** [intersects_rect rg r] is [true] when any member rectangle shares
    interior area with [r]. *)

val complement_rects : within:Rect.t -> t -> Rect.t list
(** Rectangles tiling the part of [within] not covered by the region,
    computed on the grid induced by all rectangle boundaries. *)

val pp : Format.formatter -> t -> unit
