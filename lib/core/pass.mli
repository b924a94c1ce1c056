(** Instrumentation for the passes of the logic-to-GDSII flow.

    A pass is one named, fallible step of the flow ([validate], [place],
    [layout], [export]).  {!step} runs it, emitting enter/exit trace
    events and measuring its wall-clock time; its artifact-size counters
    are computed only when something reads them.  The flow strings its
    steps together and collects their reports. *)

type pass_report = {
  pass_name : string;
  wall_s : float;  (** wall-clock seconds spent inside the pass *)
  counters : (string * int) list Lazy.t;
      (** artifact-size counters, computed at most once, when first
          forced: by the renderers below, or by {!step} when a trace is
          attached.  An untraced run that nobody renders never computes
          them, and no [wall_s] includes them. *)
}

type report = {
  passes : pass_report list;  (** in execution order; stops at first error *)
  total_s : float;
      (** wall-clock seconds of the whole run; it includes the counters
          only when an attached trace forced them *)
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
  ?trace:(trace_event -> unit) ->
  counters:('a -> (string * int) list) ->
  string ->
  (unit -> ('a, Diag.t) result) ->
  ('a, Diag.t) result * pass_report
(** [step ?trace ~counters name run] runs one pass and reports its wall
    time and, lazily, the [counters] of its output.  With a [trace], the
    pass runs between an [Enter] and an [Exit] (or [Failed]) event, and
    the [Exit] event forces the counters (after the pass's clock stops);
    without one, nothing is emitted and the counters wait for a reader.
    A failure's diagnostic gains the context [pass=name], and its report
    has no counters. *)

(** {1 Report rendering} *)

val report_to_text : report -> string
(** Fixed-width per-pass table: name, wall ms, counters (forcing them). *)

val report_to_json : report -> string
(** Stable machine-readable rendering, one {!Json} line:
    [{"total_s", "passes": [{"name", "wall_s", "counters"}]}], seconds in
    the codec's shortest round-trip form.  Forces the counters. *)

(** {1 Retired artifact cache} *)

type cache
(** Carries nothing: the flow caches no pass artifact.  Kept only for
    [perfbench/served.ml], which still creates one. *)

val cache_create : unit -> cache
(** Kept only for [perfbench/served.ml]. *)
