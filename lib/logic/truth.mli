(** Truth tables over an ordered list of input names.

    Row [i] assigns input [k] the bit [(i lsr k) land 1] where [k] is the
    input's index in {!inputs}.  Values are ternary to accommodate
    fault-injected cells whose output can be shorted ([X]). *)

type value = F | T | X

type t

val of_fun : inputs:string list -> ((string -> bool) -> value) -> t
(** Tabulate a (possibly ternary) function of the named inputs.
    @raise Invalid_argument for more than 16 inputs or duplicate names. *)

val of_expr : Expr.t -> t
(** Tabulate a boolean expression (never produces [X]). *)

val of_column : inputs:string list -> value array -> t
(** Adopt an already-tabulated column (row [i] as per the header rule).
    The array is copied.
    @raise Invalid_argument when the length is not [2 ^ (inputs)], or for
    invalid input lists as per {!of_fun}. *)

val inputs : t -> string list
val size : t -> int
(** Number of rows, [2 ^ (number of inputs)]. *)

val value : t -> int -> value

val equal : t -> t -> bool
(** Same inputs (same order) and same column. *)

val defined_everywhere : t -> bool
(** [true] when no row is [X]. *)

val mismatches : reference:t -> t -> int list
(** Row indices where the table differs from [reference] (including rows
    where it is [X]).  @raise Invalid_argument on different input lists. *)

val pp : Format.formatter -> t -> unit
