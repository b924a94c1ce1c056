(** Synthetic netlist generators for scaled physical-flow runs.

    The hand-written full adder exercises the flow at ~13 instances; these
    generators produce structurally varied designs from tens to tens of
    thousands of instances over the standard-cell catalog, so placement,
    DRC, crossing extraction and STA can be measured at realistic sizes.
    Non-unate cells (XOR2, MUX2) receive their complemented input pins
    from memoized inverters (one INV per distinct net).

    All generators are deterministic pure functions of their arguments. *)

val multiplier : bits:int -> (Netlist_ir.t, Core.Diag.t) result
(** Array multiplier: AND-gate partial products reduced column-by-column
    with carry-save full/half adders (XOR2 + MAJ3I based).  Inputs
    [A0..A<bits-1>], [B0..B<bits-1>]; outputs [P0..P<2*bits-1>].  Roughly
    [9*bits^2] instances.  [bits] must be in 1..64. *)

val multiplier_check : bits:int -> (unit, Core.Diag.t) result
(** Exhaustively compare the generated netlist against integer
    multiplication; limited to [bits <= 4]. *)

val lfsr : bits:int -> steps:int -> (Netlist_ir.t, Core.Diag.t) result
(** Combinationally unrolled Fibonacci LFSR: [steps] shift steps from
    state inputs [S0..] to state outputs [Q0..].  Maximal-length taps for
    8/16/24/32 bits, a two-tap fallback otherwise.  [bits] in 2..62,
    [steps] in 1..5000. *)

val lfsr_check :
  bits:int -> steps:int -> seed:int -> (unit, Core.Diag.t) result
(** Compare the unrolled netlist against a bitwise reference simulation
    from the given seed state. *)

val random_logic :
  gates:int -> inputs:int -> seed:int -> (Netlist_ir.t, Core.Diag.t) result
(** Seeded random combinational cloud: [gates] instances drawn from
    NAND2/NOR2/AOI21/OAI21/XOR2/MUX2/MAJ3I/INV with operands taken from
    already-driven nets (always a DAG).  [gates] in 1..30000; inputs
    [I0..I<inputs-1>] ([inputs >= 3]); the last up-to-8 gate outputs are
    buffered to [Z0..].  Same (gates, inputs, seed) always yields the
    same design (local SplitMix64; no global [Random] state). *)

type design
(** A design a spec names, with numbers its generator accepts. *)

val parse : string -> (design, Core.Diag.t) result
(** Parse a compact design spec: ["mult16"], ["lfsr32x100"],
    ["rand1000s7"] (12 inputs), ["ripple8"], ["full_adder"], and check its
    numbers by the generator's own rules, building nothing.  Syntax errors
    name the offending spec. *)

val of_spec : string -> (Netlist_ir.t, Core.Diag.t) result
(** Build the design {!parse} reads from a spec. *)
