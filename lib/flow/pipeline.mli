(** The logic-to-GDSII flow: four passes in a row (validate the netlist,
    place it, collect its cell layouts, export the GDS stream), each
    timed and measured by {!Core.Pass.step}. *)

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
      (** Fingerprint of the whole run: the MD5 (hex) of the netlist
          digest, [lib]'s name and cell list, the scheme, the aspect in
          the JSON codec's form, the literal [noanneal] and the design
          name, joined by [:] (and [/], [,] within the library part).
          Two runs with equal digests produce identical results.  It
          hashes the whole netlist, so it is computed only when forced. *)
}

val pass_names : string list
(** The pass names in execution order:
    ["validate"; "place"; "layout"; "export"]. *)

val run : ?trace:(Core.Pass.trace_event -> unit)
  -> spec -> (result_t, Core.Diag.t) result * Core.Pass.report
(** Execute the flow.  The report always covers the passes that ran, also
    on error.  When {!Telemetry.enabled}, the whole run is wrapped in a
    ["flow"] span and every pass event is mirrored into telemetry: each
    pass becomes a span carrying its artifact counters, and a failure
    closes its span with the diagnostic (bumping [flow.pass_failures]).
    [?trace] sees the same events, so one Chrome trace covers
    validate→export. *)
