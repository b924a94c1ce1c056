(** Process-wide telemetry: hierarchical spans, a sharded metrics registry
    (counters / gauges / fixed-bucket histograms), a structured event log,
    and exporters — a text summary, a JSON summary, Chrome [trace_event]
    JSON loadable in [about://tracing] or Perfetto, and a Prometheus
    scrape.  Every JSON exporter builds a {!Core.Json.t} and prints it with
    {!Core.Json.to_string}, so names are escaped and floats spelled in
    the codec's shortest round-trip form, and every document parses
    back.

    Distinct from {!Cnfet.Metrics} (figure-of-merit area/delay metrics of
    the paper): this module observes the {e toolkit itself} — the
    Monte-Carlo injector, the domain pool, the flow pipeline.

    {2 Recording model}

    All recording goes through a process-global switch ({!enable} /
    {!disable}).  While disabled every entry point is a no-op behind a
    single atomic-load branch, so instrumented hot paths cost nothing
    measurable; {!with_span} additionally skips both clock reads.

    Each domain records into its own {e shard} (created on first use,
    domain-local storage), so workers of a {!Parallel.Pool} never contend
    on a lock or a shared table.  {!collect} merges all shards into one
    {!snapshot}: counters sum, gauges keep the most recently set value,
    histograms add bucket-wise, spans concatenate.  The merge is
    associative and commutative per key, which is what makes the merged
    counters independent of how work was sharded — a campaign's
    [fault.trials] counter is the same at any [~domains] count.

    {2 Determinism}

    Span {e structure} (the multiset of [(parent, name)] edges, see
    {!span_shape}) is deterministic whenever the instrumented code emits
    the same spans for the same inputs; timings and shard ids are not.
    Instrumentation that fans out over a pool must pin its chunking to the
    workload (not the worker count) and pass [?parent] explicitly, since a
    worker domain's stack does not contain the caller's open span.

    {!collect} must not race live writers: call it after the instrumented
    work (and any pool it used) has quiesced. *)

(** {1 Switch} *)

val enable : unit -> unit
val disable : unit -> unit

val enabled : unit -> bool
(** Current state of the recording switch (atomic load). *)

val reset : unit -> unit
(** Clear all recorded spans and metrics in every shard (the shards stay
    registered and the switch state is unchanged).  Call only while no
    instrumented work is in flight. *)

(** {1 Clock} *)

val now_ns : unit -> int64
(** Monotonised wall clock, nanoseconds: never decreases process-wide
    (raw [gettimeofday] readings are clamped to the latest value already
    handed out, so spans cannot get negative durations from clock
    steps). *)

(** {1 Attributes} *)

type value = Int of int | Float of float | String of string | Bool of bool

type attrs = (string * value) list

(** {1 Spans} *)

type span = {
  name : string;
  parent : string option;
      (** enclosing span on the recording domain, or the [?parent]
          override *)
  start_ns : int64;
  dur_ns : int64;  (** 0 for instants *)
  attrs : attrs;
  shard : int;  (** id of the recording shard (domain) *)
  instant : bool;  (** a point event, not a duration *)
}

val with_span : ?parent:string -> ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] and records a span.  The parent is
    the innermost span already open {e on this domain} unless [?parent]
    overrides it (required for work fanned out to pool workers, whose
    stacks are empty).  If [f] raises, the span is still recorded with an
    [error] attribute and the exception is re-raised.  When telemetry is
    disabled this is exactly [f ()]. *)

val span_begin : string -> unit
(** Open a span on this domain's stack.  Pair with {!span_end}; for new
    instrumentation prefer {!with_span} — this low-level pair exists for
    bridging callback-style tracing (see {!Flow.Pipeline}). *)

val span_end : ?parent:string -> ?attrs:attrs -> string -> unit
(** Close the innermost open span, recording it under [name].  Unmatched
    calls (empty stack) are dropped. *)

val instant : ?attrs:attrs -> string -> unit
(** Record a zero-duration point event (e.g. a cache hit). *)

(** {1 Metrics} *)

val counter_add : string -> int -> unit
(** Add to a named monotonic counter on this domain's shard. *)

val gauge_set : string -> float -> unit
(** Set a named gauge; the merged value is the most recently set one
    (by {!now_ns} timestamp). *)

val histogram_observe : string -> buckets:float array -> float -> unit
(** Record an observation into a fixed-bucket histogram.  [buckets] are
    strictly increasing upper bounds; values above the last bound land in
    an implicit overflow bucket.  Every call site for a given name must
    pass the same bounds ({!collect} raises [Invalid_argument]
    otherwise). *)

val shard_id : unit -> int
(** Id of the calling domain's shard — stable for the domain's lifetime;
    useful for per-domain gauge names. *)

(** {1 Histograms} *)

module Hist : sig
  type t = {
    buckets : float array;  (** upper bounds, strictly increasing *)
    counts : int array;  (** length [Array.length buckets + 1] (overflow) *)
    count : int;  (** total observations: the [counts] always sum to it *)
    sum : float;
  }

  val create : buckets:float array -> t
  val observe : t -> float -> t

  val merge : t -> t -> t
  (** Bucket-wise sum; associative and commutative up to float rounding
      of [sum].  @raise Invalid_argument on differing bounds. *)
end

(** {1 Collection} *)

type snapshot = {
  spans : span list;  (** ascending [start_ns] (ties: shard, name) *)
  counters : (string * int) list;  (** name-sorted *)
  gauges : (string * float) list;  (** name-sorted, latest write wins *)
  hists : (string * Hist.t) list;  (** name-sorted *)
}

val collect : unit -> snapshot
(** Merge every shard into one snapshot.  Does not clear anything; only
    call once concurrent instrumented work has finished. *)

val merge_counters :
  (string * int) list -> (string * int) list -> (string * int) list
(** The counter-merge used by {!collect}: per-name sum, result
    name-sorted.  Associative and commutative on any inputs (they are
    canonicalised first) — property-tested. *)

val span_shape : snapshot -> (string option * string * int) list
(** The timing-free structure of the recorded spans: distinct
    [(parent, name)] edges with their multiplicities, sorted.  Two runs of
    deterministic instrumentation compare equal here even though
    timestamps, durations and shard ids differ. *)

(** {1 Quantiles} *)

val quantile_of_hist : Hist.t -> float -> float option
(** [quantile_of_hist h q] estimates the [q]-quantile ([0 <= q <= 1]) of
    the observations recorded in [h] by linear interpolation within the
    bucket containing the target rank — the textbook estimator shared by
    the text summary and the [top] monitor (and the client-side
    equivalent of PromQL's [histogram_quantile]).  The lower edge of the
    first bucket is taken as 0 when its upper bound is positive (the
    bound itself otherwise); ranks landing in the overflow bucket clamp
    to the last finite bound.  [None] for an empty histogram, an empty
    bucket array, or [q] outside [0, 1]. *)

val quantile : snapshot -> string -> float -> float option
(** [quantile snap name q] is {!quantile_of_hist} applied to the named
    histogram of the snapshot; [None] if no such histogram exists. *)

(** {1 Exporters} *)

val summary_to_text : snapshot -> string
(** Human-readable summary: spans aggregated by name (count / total /
    mean ms), then counters, gauges and histograms — each histogram with
    its {!quantile_of_hist} p50/p90/p99 estimates, the same figures the
    [top] monitor shows. *)

val summary_to_json : snapshot -> string
(** Same data as one JSON line:
    [{"spans":[...],"counters":{...},"gauges":{...},"histograms":{...}}]. *)

val chrome_trace : snapshot -> string
(** Chrome [trace_event] JSON ([{"traceEvents":[...]}], one line):
    complete events ([ph:"X"]) per span and instant events ([ph:"i"]) —
    timestamps are microseconds relative to the earliest event, [tid] is
    the shard id.
    Load in [about://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)

(** {1 Prometheus exposition}

    Text-format exposition (version 0.0.4) of the merged registry, the
    format every Prometheus-compatible scraper ingests.  The registry's
    dotted metric names are sanitized to the Prometheus grammar
    ([[a-zA-Z_:][a-zA-Z0-9_:]*], everything else becomes [_]); two
    registry names colliding after sanitization would produce a
    duplicate family — keep dotted names distinct under that mapping. *)

module Prometheus : sig
  val sanitize_name : string -> string
  (** Map a registry name onto the Prometheus metric-name grammar:
      invalid characters become [_], a leading digit gains a [_] prefix,
      the empty string becomes ["_"].  ["service.cache_hits"] is
      ["service_cache_hits"]. *)

  val escape_label : string -> string
  (** Escape a label {e value}: backslash, double quote and newline gain
      the backslash escapes of the exposition format. *)

  val escape_help : string -> string
  (** Escape a [# HELP] line: backslash and newline only. *)

  val render : ?labels:(string * string) list -> snapshot -> string
  (** The exposition document: every counter (as [<name>_total] with
      [# HELP]/[# TYPE counter]), gauge ([# TYPE gauge]) and histogram
      ([# TYPE histogram] with cumulative [_bucket{le="..."}] series
      ending in [le="+Inf"], then [_sum] and [_count]) of the snapshot,
      name-sorted, one trailing newline.  [?labels] are attached to
      every sample (label values escaped), e.g. an [instance] tag.
      Finite values print in {!Core.Json}'s shortest round-trip form;
      non-finite ones as [NaN], [+Inf] and [-Inf].  An empty registry
      renders as the empty string — a valid scrape. *)

  type sample = {
    metric : string;  (** sanitized family name, e.g. [foo_bucket] *)
    labels : (string * string) list;  (** unescaped values *)
    value : float;
  }

  val parse : string -> sample list
  (** Parse the sample lines of an exposition document ([#] comment
      lines and blank lines are skipped), in document order, undoing
      label-value escapes.  Lines that do not fit the
      [name{labels} value] grammar are dropped.  This is what lets the
      [top] monitor (and the golden tests) consume a scrape without a
      Prometheus server in the loop. *)
end

(** {1 Structured event log}

    A bounded in-memory ring of structured events — submissions, state
    transitions, cache hits, rejections, connection errors — each with a
    wall-clock timestamp and an optional trace id, so one job's life is
    greppable end-to-end.  Recording is always on (the ring is bounded
    and an emit is one mutex-guarded array write); an optional sink
    additionally streams each event as one NDJSON line as it happens.
    Independent of the span/metrics switch: {!reset} does not clear the
    ring, {!Events.clear} does. *)

module Events : sig
  type event = {
    seq : int;  (** process-wide emission index, 0-based, monotonic *)
    ts_ms : float;  (** {!now_ns} at emission, milliseconds *)
    kind : string;  (** e.g. ["job.submitted"], ["conn.close"] *)
    trace_id : string option;
    attrs : attrs;
  }

  val set_capacity : int -> unit
  (** Resize the ring (clearing it).  @raise Invalid_argument if < 1.
      Default capacity: 1024 events. *)

  val capacity : unit -> int

  val emit : ?trace_id:string -> ?attrs:attrs -> string -> unit
  (** Record an event (and stream it to the sink, if any).  Never
      raises: a sink exception is swallowed — observability must not
      take down the observed. *)

  val recent : ?limit:int -> unit -> event list
  (** The retained events, oldest first (at most [limit] newest). *)

  val dropped : unit -> int
  (** Events overwritten by ring wrap-around since the last {!clear}. *)

  val clear : unit -> unit
  (** Empty the ring and zero {!dropped} (the sink stays attached). *)

  val set_sink : (string -> unit) option -> unit
  (** Attach (or detach) the NDJSON sink; each emitted event is passed
      as one JSON line without the trailing newline. *)

  val to_json : event -> string
  (** One event as a stable single-line JSON document carrying [seq],
      [ts_ms], [kind], [trace_id] (when present) and the attrs flattened
      alongside them (an attr named like an envelope key gains an
      [attr_] prefix rather than duplicating it). *)
end
