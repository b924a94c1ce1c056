(** N-bit ripple-carry adder built by chaining the Figure-8 full adder —
    the scale-up workload showing the logic-to-GDSII flow beyond a single
    cell. *)

val netlist : bits:int -> (Netlist_ir.t, Core.Diag.t) result
(** Inputs [A0..A(n-1)], [B0..], [CIN]; outputs [S0..], [COUT].
    [bits < 1] is a [Diag] error. *)

val check_bits : int -> (unit, Core.Diag.t) result
(** The [bits] rule {!netlist} applies, building nothing. *)

val check : bits:int -> (unit, Core.Diag.t) result
(** Exhaustive arithmetic check (up to 2^(2n+1) vectors; keep [bits <= 6]). *)
