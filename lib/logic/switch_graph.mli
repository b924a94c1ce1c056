(** Switch-level conduction graphs.

    A cell layout — intended or corrupted by mispositioned CNTs — induces a
    multigraph whose nodes are metal contacts (Vdd, Gnd, Out, internal) and
    whose edges are conduction channels controlled by a *series set* of
    gates of one polarity.  Evaluating the graph under every input
    assignment recovers the cell's (possibly ternary) output function,
    which the fault simulator compares against the intended truth table.

    Evaluation is union-find over a compiled copy of the edges (dense
    node ids, and per edge a bitmask of the inputs that must be 1 and one
    of those that must be 0): one input row is one pass over the edges,
    and every query below reads that one evaluator. *)

type node = Vdd | Gnd | Out | Internal of int

type edge = {
  src : node;
  dst : node;
  gates : string list;  (** all must conduct for the edge to conduct *)
  polarity : Network.polarity;
}

type t

val create : unit -> t
val add_edge : t -> edge -> unit
val edges : t -> edge list

val add_network : t -> polarity:Network.polarity -> src:node -> dst:node
  -> Network.t -> unit
(** Expand a series/parallel network into edges between [src] and [dst],
    allocating internal nodes for series junctions. *)

val conducting_between : t -> (string -> bool) -> node -> node -> bool
(** Is there a conducting path between the two nodes under the assignment?
    A node is always connected to itself.  Like {!output_drive}, asks the
    assignment only about the graph's own gate names.
    @raise Invalid_argument when the graph has [Sys.int_size] or more
    distinct gate names. *)

type drive = High | Low | Fight | Floating
(** What actually drives [Out] under one assignment.  {!Truth.value}
    collapses [Fight] and [Floating] into a single [X]; fault diagnosis
    needs them apart — a rail fight is a short (the Fig. 2 failure mode),
    a floating output is an open. *)

val output_drive : t -> (string -> bool) -> drive
(** [High] when [Out] is connected to Vdd only, [Low] when to Gnd only,
    [Fight] when to both, [Floating] when to neither.
    @raise Invalid_argument as {!conducting_between}. *)

val value_of_drive : drive -> Truth.value
(** [High -> T], [Low -> F], [Fight | Floating -> X]. *)

val drive_string : drive -> string
(** ["1"], ["0"], ["fight"] or ["float"] — report and protocol spelling. *)

val drive_table : t -> inputs:string list -> drive array
(** {!output_drive} tabulated over all assignments of [inputs], indexed
    like {!Truth} rows (row [i] assigns input [k] the bit
    [(i lsr k) land 1]).
    @raise Invalid_argument for more than 16 inputs, or when an edge is
    gated by a name outside [inputs] — checked up front for every edge,
    whether or not any row would make that gate matter. *)

val truth_table : t -> inputs:string list -> Truth.t
(** {!drive_table} through {!value_of_drive}: [T] where [Out] connects
    to Vdd only, [F] where to Gnd only, [X] where it fights or floats.
    @raise Invalid_argument as {!drive_table}, or for duplicate inputs
    as {!Truth.of_column}. *)

val implements : t -> Expr.t -> bool
(** Does the graph implement [F = (e)'] for the positive expression [e]? *)
