(** Instrumentation for the passes of the logic-to-GDSII flow.

    A pass is one named, fallible step of the flow ([validate], [place],
    [layout], [export]).  {!step} runs it, emitting enter/exit trace
    events and measuring its wall-clock time and its artifact-size
    counters; the flow strings its steps together and collects their
    reports. *)

type pass_report = {
  pass_name : string;
  wall_s : float;  (** wall-clock seconds spent inside the pass *)
  counters : (string * int) list;  (** artifact-size counters *)
}

type report = {
  passes : pass_report list;  (** in execution order; stops at first error *)
  total_s : float;
}

type trace_event =
  | Enter of string  (** pass entered *)
  | Exit of string * float * (string * int) list
      (** pass finished normally: wall seconds and the pass's
          artifact-size counters *)
  | Failed of string * Diag.t  (** pass returned an error *)

val trace_event_to_string : trace_event -> string
(** Self-describing one-liner: [Exit] includes every artifact-size
    counter ([k=v ...]), so a text trace alone reconstructs what each
    pass produced. *)

val step :
  trace:(trace_event -> unit) ->
  counters:('a -> (string * int) list) ->
  string ->
  (unit -> ('a, Diag.t) result) ->
  ('a, Diag.t) result * pass_report
(** [step ~trace ~counters name run] runs one pass between an [Enter]
    and an [Exit] (or [Failed]) event and reports its wall time and the
    [counters] of its output.  A failure's diagnostic gains the context
    [pass=name], and its report has no counters. *)

(** {1 Report rendering} *)

val report_to_text : report -> string
(** Fixed-width per-pass table: name, wall ms, counters. *)

val report_to_json : report -> string
(** Stable machine-readable rendering, one {!Json} line:
    [{"total_s", "passes": [{"name", "wall_s", "counters"}]}], seconds in
    the codec's shortest round-trip form. *)

(** {1 Retired artifact cache} *)

type cache
(** Carries nothing: the flow caches no pass artifact.  Kept only for
    [perfbench/served.ml], which still creates one. *)

val cache_create : unit -> cache
(** Kept only for [perfbench/served.ml]. *)
