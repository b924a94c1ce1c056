(** Minimal distinguishing vector sets: the smallest set of input
    assignments that detects every fault class of a dictionary.

    Applying input row [r] to a manufactured cell and observing the
    output detects a fault class exactly when [r] is one of the class's
    mismatch rows — so vector selection is set cover over class masks.
    {!greedy} is the standard highest-coverage-first heuristic (within
    the [H(n)] bound of optimal); {!generate} also computes the true
    optimum for cells of up to 4 inputs (65536 candidate subsets at
    most), which is what lets the property tests validate the greedy
    bound rather than assume it. *)

type t = {
  vectors : int list;
      (** chosen input rows, in greedy pick order (highest residual
          coverage first; ties to the lowest row — deterministic) *)
  covered : int;  (** classes the set detects *)
  classes : int;  (** classes in the dictionary *)
  optimal : int option;
      (** size of a true minimum cover, for cells of up to 4 inputs *)
}

val greedy : Dictionary.t -> int list
(** Greedy set cover; covers every class (each class has at least one
    mismatch row).  Empty for an empty dictionary. *)

val detects_all : Dictionary.t -> int list -> bool
(** Does the vector set detect every class of the dictionary? *)

val generate : Dictionary.t -> t
(** {!greedy}, coverage audit, and (for cells of up to 4 inputs) the
    size of a minimum-cardinality cover. *)
