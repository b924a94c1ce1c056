(** Axis-aligned rectangles on the integer lambda grid.

    All layout geometry in the design kit is expressed in integer multiples
    of the lithography half-pitch [lambda].  A rectangle is stored by its
    lower-left corner [(x0, y0)] and upper-right corner [(x1, y1)], with the
    invariant [x0 <= x1 && y0 <= y1] enforced by {!make}. *)

type t = private { x0 : int; y0 : int; x1 : int; y1 : int }

val make : x0:int -> y0:int -> x1:int -> y1:int -> t
(** [make ~x0 ~y0 ~x1 ~y1] normalizes the corners so the invariant holds. *)

val of_size : x:int -> y:int -> w:int -> h:int -> t
(** [of_size ~x ~y ~w ~h] is the rectangle with lower-left [(x, y)], width
    [w] and height [h].  @raise Invalid_argument if [w < 0] or [h < 0]. *)

val empty : t
(** A degenerate rectangle at the origin with zero area. *)

val width : t -> int
val height : t -> int

val area : t -> int
(** [area r] is [width r * height r] in lambda^2. *)

val is_empty : t -> bool
(** [is_empty r] is [true] when [r] has zero width or zero height. *)

val translate : dx:int -> dy:int -> t -> t

val inflate : int -> t -> t
(** [inflate d r] grows [r] by [d] on every side (shrinks when [d < 0]);
    the result is clamped to a degenerate rectangle rather than inverting. *)

val contains : t -> x:int -> y:int -> bool
(** Closed-boundary containment test. *)

val contains_rect : outer:t -> inner:t -> bool

val intersects : t -> t -> bool
(** [intersects a b] is [true] when the closed rectangles share interior
    area (touching edges do not count). *)

val inter : t -> t -> t option
(** [inter a b] is the overlapping region when [intersects a b]. *)

val union_bbox : t -> t -> t
(** Bounding box of the two rectangles (smallest enclosing rectangle). *)

val bbox_of_list : t list -> t
(** Bounding box of a list; [empty] for the empty list. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
