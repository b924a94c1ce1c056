(** Series/parallel transistor networks.

    A pull-down network (PDN) of a static gate realizing [F = (e)'] conducts
    exactly when the positive expression [e] is true; its tree mirrors [e]
    with [And -> Series] and [Or -> Parallel].  The pull-up network (PUN) is
    the {!dual} tree built from p-type devices, conducting when [e] is
    false. *)

type polarity = N_type | P_type
(** n-type devices conduct on input 1, p-type on input 0. *)

type t =
  | Device of string  (** a single transistor gated by the named input *)
  | Series of t list
  | Parallel of t list

val of_expr : Expr.t -> t
(** Transistor network of a positive expression.
    @raise Invalid_argument when the expression is not positive. *)

val dual : t -> t
(** Swap series and parallel — converts a PDN tree into the PUN tree. *)

val devices : t -> string list
(** Gate input of every device, left to right (duplicates preserved). *)

val device_count : t -> int

val conducts : polarity -> (string -> bool) -> t -> bool
(** Switch-level conduction under an input assignment. *)

val depth : t -> int
(** Longest series chain of devices on any conduction path — the transistor
    stack height, used for resistance-matched sizing. *)

val validate_complementary : pdn:t -> pun:t -> (unit, string) result
(** Check PUN/PDN are complementary: for every assignment exactly one of
    them conducts (p-type PUN, n-type PDN).  Networks of up to 16 distinct
    inputs are checked exhaustively. *)

val pp : Format.formatter -> t -> unit
