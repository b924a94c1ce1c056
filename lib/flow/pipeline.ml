type spec = {
  netlist : Netlist_ir.t;
  lib : Stdcell.Library.t;
  scheme : [ `S1 | `S2 ];
  aspect : float;
}

let spec_of_netlist ?(scheme = `S2) ?(aspect = 1.0) ~lib netlist =
  { netlist; lib; scheme; aspect }

type result_t = {
  netlist : Netlist_ir.t;
  placement : Placer.t;
  cells : Layout.Cell.t list;
  gds_bytes : string;
  spec_digest : string Lazy.t;
}

let scheme_string = function `S1 -> "S1" | `S2 -> "S2"

(* The job service's pinned [spec_digest] bytes rest on this layout.
   The aspect prints in the JSON codec's shortest round-trip form, so
   aspects that differ in any bit get different digests; the literal
   [noanneal] keeps the bytes the digest was pinned with. *)
let spec_digest (s : spec) =
  let lib_digest =
    s.lib.Stdcell.Library.lib_name ^ "/"
    ^ String.concat ","
        (List.map
           (fun (e : Stdcell.Library.entry) -> e.Stdcell.Library.cell_name)
           s.lib.Stdcell.Library.entries)
  in
  Digest.to_hex
    (Digest.string
       (String.concat ":"
          [
            Netlist_ir.digest s.netlist;
            lib_digest;
            scheme_string s.scheme;
            Core.Json.to_string (Core.Json.Num s.aspect);
            "noanneal";
            s.netlist.Netlist_ir.design;
          ]))

(* The unique layouts the placement references, in first-use order. *)
let unique_cells (s : spec) (placement : Placer.t) =
  let ( let* ) = Result.bind in
  let* cells =
    List.fold_left
      (fun acc (c : Placer.placed_cell) ->
        let* acc = acc in
        let* e = Placer.entry_for s.lib c.Placer.inst in
        let l =
          match s.scheme with
          | `S1 -> e.Stdcell.Library.scheme1
          | `S2 -> e.Stdcell.Library.scheme2
        in
        if
          List.exists
            (fun (k : Layout.Cell.t) -> k.Layout.Cell.name = l.Layout.Cell.name)
            acc
        then Ok acc
        else Ok (l :: acc))
      (Ok []) placement.Placer.cells
  in
  Ok (List.rev cells)

let pass_names = [ "validate"; "place"; "layout"; "export" ]

let run_passes ~trace (s : spec) =
  let ( let* ) = Result.bind in
  let t0 = Unix.gettimeofday () in
  let reports = ref [] in
  let step name ~counters run =
    let result, report = Core.Pass.step ~trace ~counters name run in
    reports := report :: !reports;
    result
  in
  let n = s.netlist in
  let result =
    let* () =
      step "validate"
        ~counters:(fun () ->
          [
            ("instances", List.length n.Netlist_ir.instances);
            ("nets",
             List.length n.Netlist_ir.inputs
             + List.length n.Netlist_ir.instances);
          ])
        (fun () -> Netlist_ir.validate n)
    in
    let* placement =
      step "place"
        ~counters:(fun p ->
          [
            ("cells", List.length p.Placer.cells);
            ("die_area", Placer.die_area p);
            ("hpwl", Placer.wirelength_estimate p n);
          ])
        (fun () ->
          match s.scheme with
          | `S1 -> Placer.rows ~lib:s.lib ~aspect:s.aspect n
          | `S2 -> Placer.shelves ~lib:s.lib ~aspect:s.aspect n)
    in
    let* cells =
      step "layout"
        ~counters:(fun cells ->
          [
            ("unique_cells", List.length cells);
            ("layers",
             List.fold_left
               (fun acc c -> acc + List.length (Layout.Cell.layers c))
               0 cells);
          ])
        (fun () -> unique_cells s placement)
    in
    step "export"
      ~counters:(fun (r : result_t) ->
        [
          (* the top structure plus one per referenced cell *)
          ("structures", 1 + List.length r.cells);
          ("gds_bytes", String.length r.gds_bytes);
        ])
      (fun () ->
        let* gds_bytes =
          Gds_export.placement ~lib:s.lib ~scheme:s.scheme
            ~name:n.Netlist_ir.design placement
        in
        Ok
          {
            netlist = n;
            placement;
            cells;
            gds_bytes;
            spec_digest = lazy (spec_digest s);
          })
  in
  ( result,
    {
      Core.Pass.passes = List.rev !reports;
      total_s = Unix.gettimeofday () -. t0;
    } )

(* Bridge the pass trace events into telemetry spans: Enter/Exit become
   a span (with the artifact counters as attributes), a failure closes
   the span with the diagnostic attached.  Everything lands on the
   calling domain, so the spans nest naturally under the "flow" root. *)
let telemetry_trace = function
  | Core.Pass.Enter n -> Telemetry.span_begin n
  | Core.Pass.Exit (n, _, cs) ->
    Telemetry.span_end
      ~attrs:(List.map (fun (k, v) -> (k, Telemetry.Int v)) cs)
      n
  | Core.Pass.Failed (n, d) ->
    Telemetry.counter_add "flow.pass_failures" 1;
    Telemetry.span_end
      ~attrs:[ ("error", Telemetry.String (Core.Diag.to_string d)) ]
      n

let run ?(trace = ignore) (s : spec) =
  if not (Telemetry.enabled ()) then run_passes ~trace s
  else
    Telemetry.with_span "flow"
      ~attrs:
        [
          ("top", Telemetry.String s.netlist.Netlist_ir.design);
          ("scheme", Telemetry.String (scheme_string s.scheme));
        ]
    @@ fun () ->
    run_passes
      ~trace:(fun e ->
        trace e;
        telemetry_trace e)
      s
