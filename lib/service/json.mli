(** Minimal JSON values for the NDJSON serving layer.

    The toolchain deliberately has no JSON dependency (every exporter so
    far hand-rolls its output), but a {e server} must also parse requests,
    so this module provides the smallest complete JSON implementation the
    protocol needs: a value type, a recursive-descent parser and a stable
    printer.  Numbers are kept as [float] (like JavaScript); [Int] helpers
    cover the common integral cases.  Object member order is preserved, so
    printing is stable and cache files diff cleanly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [int n] is [Num (float_of_int n)]. *)

val of_string : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed).  Errors
    carry a character offset and a short description.  All standard
    string escapes are decoded, including [u]-escapes (to UTF-8, with
    surrogate-pair combination). *)

val to_string : t -> string
(** Compact single-line rendering (never emits a newline — one value is
    one NDJSON line).  Integral [Num]s print without a decimal point;
    other finite floats print in shortest round-trip form (the fewest
    significant digits that parse back to the identical double, so
    [of_string (to_string v)] preserves every [Num] bit-for-bit and
    digest/cache keys survive encode→decode); non-finite floats print as
    [null] (JSON has no representation for them). *)

(** {1 Accessors}

    All return [option]; absent members and type mismatches are [None]. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k], if any. *)

val to_bool : t -> bool option
val to_float : t -> float option

val to_int : t -> int option
(** [Num f] only when [f] is integral and within OCaml's int range
    [[-2^62, 2^62)]; larger magnitudes are [None], never wrapped. *)

val to_str : t -> string option
val to_list : t -> t list option
