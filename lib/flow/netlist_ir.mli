(** Structural gate-level netlists: the hand-off format between logic
    synthesis, placement and GDSII export.

    All fallible operations return [('a, Core.Diag.t) result]; diagnostics
    carry the offending instance/net names in their context. *)

type instance = {
  inst_name : string;
  cell : string;  (** logic function name, e.g. "NAND2" *)
  drive : int;
  output : string;  (** net driven by the cell output *)
  conns : (string * string) list;  (** formal input -> net *)
}

type t = {
  design : string;
  inputs : string list;
  outputs : string list;
  instances : instance list;
}

val validate : t -> (unit, Core.Diag.t) result
(** Single driver per net, no dangling instance inputs, every design output
    driven, all instance cells known, no combinational cycles. *)

val evaluator : t -> ((string -> bool) -> string -> bool, Core.Diag.t) result
(** [evaluator t] validates [t] once and returns a total evaluation
    function [f env net] (topological, memoized per [env] application).
    A queried net with no driver reads from [env], like a primary input.
    Use this in exhaustive-simulation loops: validation cost is paid once,
    not per input vector. *)

val eval : t -> (string -> bool) -> string -> (bool, Core.Diag.t) result
(** One-shot {!evaluator}: validates on every call.  Convenience for tests
    and single lookups. *)

val truth_of_output : t -> output:string -> (Logic.Truth.t, Core.Diag.t) result
(** Tabulate one design output over the primary inputs.  Errors when the
    netlist does not validate or [output] is not a net of the design. *)

val stats : t -> (string * int) list
(** Instance count per [cell_drive] name, sorted. *)

val to_string : t -> string
(** Human-readable single-file dump (also the on-disk format). *)

val of_string : string -> (t, Core.Diag.t) result
(** Parse {!to_string}'s format: [design NAME], [input A B ...],
    [output S ...], and one [inst name cell drive out=net a=net ...] line
    per instance; ['#'] starts a comment. *)

val digest : t -> string
(** Stable fingerprint of the netlist content; the full adder's keys
    its flow jobs, and every flow run's [spec_digest] starts from it. *)
