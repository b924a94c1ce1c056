(** The staged logic-to-GDSII flow, expressed over the {!Core.Pass}
    manager: netlist -> placed design -> cell layouts -> GDS stream, with
    per-pass wall-clock and artifact-size instrumentation.

    The passes are created once at module initialisation, so an artifact
    cache handed to successive {!run} calls skips every pass whose input
    digest is unchanged — editing only placement parameters re-runs
    placement and export but serves validation from the cache. *)

type spec = {
  netlist : Netlist_ir.t;
      (** the design; its name names the top GDS structure *)
  lib : Stdcell.Library.t;
  scheme : [ `S1 | `S2 ];
      (** [`S1]: row placement of scheme-1 layouts; [`S2]: shelf packing of
          scheme-2 layouts *)
  aspect : float;  (** target die width/height ratio *)
}

val spec_of_netlist : ?scheme:[ `S1 | `S2 ] -> ?aspect:float
  -> lib:Stdcell.Library.t -> Netlist_ir.t -> spec
(** Defaults: [`S2], aspect 1.0. *)

type result_t = {
  netlist : Netlist_ir.t;
  placement : Placer.t;
  cells : Layout.Cell.t list;  (** unique layouts referenced by the design *)
  gds_bytes : string;  (** the GDSII stream {!Gds_export.placement} wrote *)
  spec_digest : string Lazy.t;
      (** Fingerprint of the whole run: the netlist digest plus every
          placement parameter ([lib], [scheme], [aspect]) and the design
          name.  Two runs with equal digests produce identical results, so
          it is a sound whole-run cache key.  It reuses the netlist digest
          the pass keys share, so a run with a pass cache hashes the
          netlist once, and a run without one only when this is forced. *)
}

val pass_names : string list
(** The pass names in execution order:
    ["validate"; "place"; "layout"; "export"]. *)

val run : ?cache:Core.Pass.cache -> ?trace:(Core.Pass.trace_event -> unit)
  -> spec -> (result_t, Core.Diag.t) result * Core.Pass.report
(** Execute the flow.  The report always covers the passes that ran, also
    on error.  When {!Telemetry.enabled}, the whole run is wrapped in a
    ["flow"] span and every pass event is mirrored into telemetry: each
    pass becomes a span carrying its artifact counters and cached flag,
    a cache hit an instant event (bumping [flow.cache_hits]), and a
    failure closes its span with the diagnostic (bumping
    [flow.pass_failures]).  [?trace] sees the same events, so one Chrome
    trace covers validate→export. *)
