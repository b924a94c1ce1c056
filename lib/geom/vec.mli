(** Floating-point 2-D vectors, used by the mispositioned-CNT track model
    (CNT tracks are straight lines with a small random angle, so they do not
    live on the integer lambda grid). *)

type t = { x : float; y : float }

val v : float -> float -> t
val zero : t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val dot : t -> t -> float
val norm : t -> float
val normalize : t -> t
(** @raise Invalid_argument on the zero vector. *)

val pp : Format.formatter -> t -> unit
