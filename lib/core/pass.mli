(** Typed pass manager for the logic-to-GDSII flow.

    A pass is a named, fallible transformation from one stage artifact to the
    next ([netlist -> placement -> cells -> GDS stream]).  The
    pipeline combinator threads artifacts through a sequence of passes while
    recording per-pass wall-clock time and artifact-size counters, emitting
    optional enter/exit trace events, and consulting an optional artifact
    cache keyed by a stable digest of each pass's input — so re-running a
    flow after editing only a late stage skips the unchanged upstream passes.

    Passes carry their own universal-type embedding for the cache, so a pass
    value must be created once (at module initialisation) and reused across
    runs for cache hits to be possible; creating a fresh pass each run still
    works, it just never hits the cache. *)

type ('a, 'b) t
(** A pass from stage artifact ['a] to stage artifact ['b]. *)

val make :
  ?digest:('a -> string) ->
  ?counters:('b -> (string * int) list) ->
  ?refresh:('a -> 'b -> 'b) ->
  name:string ->
  ('a -> ('b, Diag.t) result) ->
  ('a, 'b) t
(** [make ~name run] wraps [run] as a pass.  [digest] produces a stable
    fingerprint of the input artifact; only passes with a digest function
    participate in the artifact cache.  [counters] reports named artifact
    sizes (instance counts, bytes, ...) measured on the pass output.
    [refresh current_input cached_artifact] reconciles a cache-served
    artifact with the current input: a digest hit certifies only the
    digested part of the input, so any undigested context the artifact
    embeds (downstream flow parameters threaded through the stages, say)
    must be refreshed from the live input before downstream passes see
    it. *)

(** {1 Pipelines} *)

type ('a, 'b) pipeline

val pass : ('a, 'b) t -> ('a, 'b) pipeline
(** A one-pass pipeline. *)

val ( >>> ) : ('a, 'b) pipeline -> ('b, 'c) t -> ('a, 'c) pipeline
(** [p >>> q] extends pipeline [p] with pass [q]. *)

val names : ('a, 'b) pipeline -> string list
(** Pass names in execution order. *)

(** {1 Instrumentation} *)

type pass_report = {
  pass_name : string;
  wall_s : float;  (** wall-clock seconds spent inside the pass *)
  cached : bool;  (** true when the artifact came from the cache *)
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
  | Cache_hit of string * (string * int) list
      (** pass skipped, artifact (with its counters) served from cache *)
  | Failed of string * Diag.t  (** pass returned an error *)

val trace_event_to_string : trace_event -> string
(** Self-describing one-liner: [Exit]/[Cache_hit] include the cached flag
    and every artifact-size counter ([k=v ...]), so a text trace alone
    reconstructs what each pass produced. *)

(** {1 Artifact cache} *)

type cache
(** Maps pass name to (input digest, cached artifact).  A pass re-runs iff
    its input digest changed; an unchanged digest serves the stored
    artifact without running the pass. *)

val cache_create : unit -> cache

val cache_entries : cache -> (string * string) list
(** [(pass_name, input_digest)] pairs currently stored, unordered. *)

(** {1 Execution} *)

val execute :
  ?cache:cache ->
  ?trace:(trace_event -> unit) ->
  ('a, 'b) pipeline ->
  'a ->
  ('b, Diag.t) result * report
(** Run the pipeline on an input artifact.  Always returns the report for
    the passes that ran (on error, the report covers passes up to and
    including the failing one). *)

(** {1 Report rendering} *)

val report_to_text : report -> string
(** Fixed-width per-pass table: name, wall ms, cached flag, counters. *)

val report_to_json : report -> string
(** Stable machine-readable rendering, one {!Json} line:
    [{"total_s", "passes": [{"name", "wall_s", "cached", "counters"}]}],
    seconds in the codec's shortest round-trip form. *)
