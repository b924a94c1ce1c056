(** Structured diagnostics for the logic-to-GDSII flow.

    Every fallible public API in [lib/flow], [lib/layout] and [lib/stdcell]
    returns [('a, Diag.t) result] instead of raising.  A diagnostic records
    which pipeline stage produced it, how severe it is, a human-readable
    message, and a list of key/value context pairs (net names, cell names,
    parameter values) that callers can inspect programmatically.

    The only sanctioned way back into exception land is {!ok_exn} /
    {!Failure}, intended for the CLI boundary and for tests that assert a
    computation cannot fail. *)

type severity = Error | Warning | Info

type t = {
  stage : string;  (** pipeline stage or module that produced the diagnostic *)
  severity : severity;
  message : string;
  context : (string * string) list;  (** ordered key/value details *)
}

exception Failure of t
(** Raised by {!ok_exn} and by the [_exn] shims at the CLI boundary. *)

val make : ?severity:severity -> ?context:(string * string) list ->
  stage:string -> string -> t
(** [make ~stage msg] builds a diagnostic; [severity] defaults to [Error]. *)

val error : ?context:(string * string) list -> stage:string -> string -> t
(** [error ~stage msg] = [make ~severity:Error ~stage msg]. *)

val errorf : ?context:(string * string) list -> stage:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a
(** Printf-style {!error}. *)

val fail : ?context:(string * string) list -> stage:string -> string ->
  ('a, t) result
(** [fail ~stage msg] = [Error (error ~stage msg)]. *)

val failf : ?context:(string * string) list -> stage:string ->
  ('b, Format.formatter, unit, ('a, t) result) format4 -> 'b
(** Printf-style {!fail}. *)

val with_context : (string * string) list -> t -> t
(** Append context pairs to an existing diagnostic. *)

val with_stage : string -> t -> t
(** [with_stage s d] re-labels [d] as coming from stage [s].  When [s]
    differs, the stage that first produced [d] is kept under the
    ["origin"] context key; re-staging again keeps that one origin. *)

val to_string : t -> string
(** One-line rendering: [stage: severity: message (k=v, ...)]. *)

val to_json : t -> Json.t
(** The object [{"stage", "severity", "message", "context"}], context as
    a string-valued object in order: the [error] member of every service
    reply. *)

val of_json : stage:string -> message:string -> Json.t -> t
(** The inverse of {!to_json}: [of_json ~stage ~message (to_json d) = d].
    A member that is absent or not a string falls back to [stage] or
    [message], an unknown severity to [Error], and non-string context
    values are dropped, so any reply's [error] member decodes. *)

val pp : Format.formatter -> t -> unit

val ok_exn : ('a, t) result -> 'a
(** [ok_exn (Ok x)] is [x]; [ok_exn (Error d)] raises [Failure d].  Thin
    exception shim for the CLI boundary and for tests. *)

