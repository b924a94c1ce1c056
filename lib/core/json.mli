(** The toolkit's one JSON codec.

    Every JSON document the kit reads or prints goes through this module:
    protocol requests and replies, job documents, journal records, flow
    pass reports, diagnostics, telemetry summaries, Chrome traces, the
    event log and the bench ledgers.  No other module escapes a string or
    spells a float for JSON; the digests and cache keys that must survive
    an encode/decode round trip print their floats here too.  It is the
    smallest complete JSON implementation the kit needs, with no external
    dependency: a value type, a recursive-descent parser and a stable
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
    carry a byte offset and a short description that names any byte
    outside printable ASCII by its hex code, so the message itself is
    always valid UTF-8.  All standard string escapes are decoded,
    including [u]-escapes (to UTF-8; a surrogate escape must be half of
    a high-low pair).  The parser is strict about UTF-8: raw bytes inside
    a string must be well-formed UTF-8 (no stray continuation bytes,
    overlong forms, encoded surrogates or code points past U+10FFFF), so
    every string it returns is valid UTF-8 and prints back as valid
    JSON. *)

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
