(** The staged logic-to-GDSII flow, expressed over the {!Core.Pass}
    manager: spec -> netlist -> placed design -> cell layouts -> GDS
    stream, with per-pass wall-clock and artifact-size instrumentation.

    The passes are created once at module initialisation, so an artifact
    cache handed to successive {!run} calls skips every pass whose input
    digest is unchanged — editing only placement parameters re-runs
    placement and export but serves parsing/validation from the cache. *)

type spec = {
  source : [ `Text of string | `Netlist of Netlist_ir.t ];
      (** the design, as on-disk netlist text or an in-memory IR *)
  lib : Stdcell.Library.t;
  scheme : [ `S1 | `S2 ];
      (** [`S1]: row placement of scheme-1 layouts; [`S2]: shelf packing of
          scheme-2 layouts *)
  top_name : string;  (** name of the top GDS structure *)
  aspect : float;  (** target die width/height ratio *)
  anneal : Anneal.config option;
      (** when set, refine the placement by simulated annealing *)
}

val spec_of_netlist : ?scheme:[ `S1 | `S2 ] -> ?top_name:string
  -> ?aspect:float -> ?anneal:Anneal.config -> lib:Stdcell.Library.t
  -> Netlist_ir.t -> spec
(** Defaults: [`S2], the netlist's design name, aspect 1.0, no anneal. *)

val spec_of_text : ?scheme:[ `S1 | `S2 ] -> ?top_name:string
  -> ?aspect:float -> ?anneal:Anneal.config -> lib:Stdcell.Library.t
  -> string -> spec
(** Same, from netlist text in {!Netlist_ir.of_string} format. *)

type result_t = {
  netlist : Netlist_ir.t;
  placement : Placer.t;
  cells : Layout.Cell.t list;  (** unique layouts referenced by the design *)
  gds_bytes : string;  (** the GDSII stream {!Gds_export.placement} wrote *)
  spec_digest : string Lazy.t;
      (** Fingerprint of the whole run: the netlist digest plus every
          placement parameter ([lib], [scheme], [aspect], [anneal],
          [top_name]).  Two runs with equal digests produce identical
          results, so it is a sound whole-run cache key.  It reuses the
          netlist digest the pass keys share, so a run with a pass cache
          hashes the netlist once, and a run without one only when this
          is forced. *)
}

val pass_names : string list
(** The pass names in execution order:
    ["parse"; "validate"; "place"; "layout"; "export"]. *)

val source_digest : [ `Text of string | `Netlist of Netlist_ir.t ] -> string
(** The fingerprint the [parse] pass is keyed on — exposed so callers
    above the flow (the job service's result cache) can agree with the
    pipeline on what "the same design source" means. *)

val telemetry_trace : Core.Pass.trace_event -> unit
(** Bridge from pass-manager trace events to {!Telemetry} spans: each
    Enter/Exit pair becomes a span carrying the pass's artifact counters
    and cached flag as attributes, cache hits become instant events (and
    bump the [flow.cache_hits] counter), failures close the span with the
    diagnostic attached and bump [flow.pass_failures].  {!run} installs
    this automatically whenever telemetry is enabled. *)

val run : ?cache:Core.Pass.cache -> ?trace:(Core.Pass.trace_event -> unit)
  -> spec -> (result_t, Core.Diag.t) result * Core.Pass.report
(** Execute the flow.  The report always covers the passes that ran, also
    on error.  When {!Telemetry.enabled}, the whole run is wrapped in a
    ["flow"] span and every pass event is mirrored through
    {!telemetry_trace} (composed with [?trace] if both are given), so one
    Chrome trace covers parse→export. *)
