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

(* Digest helpers: each pass is keyed by what actually feeds it, so an
   edit to a late-stage parameter (scheme, aspect) leaves the upstream
   digests — and hence their cached artifacts — untouched. *)

let lib_digest (lib : Stdcell.Library.t) =
  lib.Stdcell.Library.lib_name ^ "/"
  ^ String.concat ","
      (List.map
         (fun (e : Stdcell.Library.entry) -> e.Stdcell.Library.cell_name)
         lib.Stdcell.Library.entries)

let scheme_string = function `S1 -> "S1" | `S2 -> "S2"

(* Floats print in the JSON codec's shortest round-trip form, so aspects
   that differ in any bit key different placements.  The trailing
   [noanneal] keeps the bytes every pass key and spec digest was pinned
   with. *)
let place_params s =
  let num f = Core.Json.to_string (Core.Json.Num f) in
  Printf.sprintf "%s:%s:%s:noanneal" (lib_digest s.lib)
    (scheme_string s.scheme) (num s.aspect)

(* Stage artifacts thread the spec along so downstream passes see their
   parameters without the passes themselves being parameterized (they must
   be top-level values for the artifact cache to work across runs).

   The netlist digest keys every pass and hashes the whole serialized
   netlist, so it travels lazily with the stages: a run computes it at
   most once, and never when no cache asks for a key. *)

type staged = { spec : spec; netlist_digest : string Lazy.t }

(* The job service's pinned [spec_digest] bytes rest on this layout. *)
let spec_digest st =
  lazy
    (Digest.to_hex
       (Digest.string
          (Lazy.force st.netlist_digest ^ ":" ^ place_params st.spec ^ ":"
         ^ st.spec.netlist.Netlist_ir.design)))

type placed = { s : staged; placement : Placer.t }
type laid_out = { p : placed; cells : Layout.Cell.t list }

(* Each pass's digest deliberately covers only part of its input, so the
   refresh hooks re-thread the *current* spec through cache-served
   artifacts: a cache hit must not resurrect the spec (scheme, aspect)
   that was live when the artifact was stored. *)

let validate_pass =
  Core.Pass.make ~name:"validate"
    ~digest:(fun st -> Lazy.force st.netlist_digest)
    ~refresh:(fun st _cached -> st)
    ~counters:(fun st ->
      let n = st.spec.netlist in
      [
        ("instances", List.length n.Netlist_ir.instances);
        ("nets",
         List.length n.Netlist_ir.inputs + List.length n.Netlist_ir.instances);
      ])
    (fun st ->
      match Netlist_ir.validate st.spec.netlist with
      | Ok () -> Ok st
      | Error _ as e -> e)

let place_pass =
  Core.Pass.make ~name:"place"
    ~digest:(fun st ->
      Digest.to_hex
        (Digest.string
           (Lazy.force st.netlist_digest ^ place_params st.spec)))
    ~refresh:(fun st p -> { p with s = st })
    ~counters:(fun p ->
      [
        ("cells", List.length p.placement.Placer.cells);
        ("die_area", Placer.die_area p.placement);
        ("hpwl", Placer.wirelength_estimate p.placement p.s.spec.netlist);
      ])
    (fun st ->
      let place =
        match st.spec.scheme with
        | `S1 -> Placer.rows ~lib:st.spec.lib ~aspect:st.spec.aspect
        | `S2 -> Placer.shelves ~lib:st.spec.lib ~aspect:st.spec.aspect
      in
      match place st.spec.netlist with
      | Error _ as e -> e
      | Ok placement -> Ok { s = st; placement })

let layout_pass =
  Core.Pass.make ~name:"layout"
    ~digest:(fun p ->
      Digest.to_hex
        (Digest.string
           (Lazy.force p.s.netlist_digest ^ place_params p.s.spec)))
    ~refresh:(fun p l -> { l with p })
    ~counters:(fun l ->
      [
        ("unique_cells", List.length l.cells);
        ("layers",
         List.fold_left
           (fun acc c -> acc + List.length (Layout.Cell.layers c))
           0 l.cells);
      ])
    (fun p ->
      let ( let* ) = Result.bind in
      let* cells =
        List.fold_left
          (fun acc (c : Placer.placed_cell) ->
            let* acc = acc in
            let* e = Placer.entry_for p.s.spec.lib c.Placer.inst in
            let l =
              match p.s.spec.scheme with
              | `S1 -> e.Stdcell.Library.scheme1
              | `S2 -> e.Stdcell.Library.scheme2
            in
            if
              List.exists
                (fun (k : Layout.Cell.t) ->
                  k.Layout.Cell.name = l.Layout.Cell.name)
                acc
            then Ok acc
            else Ok (l :: acc))
          (Ok []) p.placement.Placer.cells
      in
      Ok { p; cells = List.rev cells })

let export_pass =
  Core.Pass.make ~name:"export"
    ~digest:(fun l ->
      Digest.to_hex
        (Digest.string
           (Lazy.force l.p.s.netlist_digest ^ place_params l.p.s.spec ^ ":"
          ^ l.p.s.spec.netlist.Netlist_ir.design)))
    ~counters:(fun (r : result_t) ->
      [
        (* the top structure plus one per referenced cell *)
        ("structures", 1 + List.length r.cells);
        ("gds_bytes", String.length r.gds_bytes);
      ])
    (fun l ->
      let s = l.p.s.spec in
      match
        Gds_export.placement ~lib:s.lib ~scheme:s.scheme
          ~name:s.netlist.Netlist_ir.design l.p.placement
      with
      | Error _ as e -> e
      | Ok gds_bytes ->
        Ok
          {
            netlist = s.netlist;
            placement = l.p.placement;
            cells = l.cells;
            gds_bytes;
            spec_digest = spec_digest l.p.s;
          })

let flow =
  Core.Pass.(
    pass validate_pass >>> place_pass >>> layout_pass >>> export_pass)

let pass_names = Core.Pass.names flow

(* Bridge the pass manager's callback-style trace events into telemetry
   spans: Enter/Exit become a span (with the artifact counters as
   attributes), a cache hit becomes an instant event, a failure closes
   the span with the diagnostic attached.  Everything lands on the
   calling domain, so the spans nest naturally under the "flow" root. *)

let counter_attrs cs = List.map (fun (k, v) -> (k, Telemetry.Int v)) cs

let telemetry_trace = function
  | Core.Pass.Enter n -> Telemetry.span_begin n
  | Core.Pass.Exit (n, _, cs) ->
    Telemetry.span_end
      ~attrs:(("cached", Telemetry.Bool false) :: counter_attrs cs)
      n
  | Core.Pass.Cache_hit (n, cs) ->
    Telemetry.counter_add "flow.cache_hits" 1;
    Telemetry.instant
      ~attrs:(("cached", Telemetry.Bool true) :: counter_attrs cs)
      n
  | Core.Pass.Failed (n, d) ->
    Telemetry.counter_add "flow.pass_failures" 1;
    Telemetry.span_end
      ~attrs:[ ("error", Telemetry.String (Core.Diag.to_string d)) ]
      n

let run ?cache ?trace s =
  let input =
    { spec = s; netlist_digest = lazy (Netlist_ir.digest s.netlist) }
  in
  if not (Telemetry.enabled ()) then Core.Pass.execute ?cache ?trace flow input
  else
    Telemetry.with_span "flow"
      ~attrs:
        [
          ("top", Telemetry.String s.netlist.Netlist_ir.design);
          ("scheme", Telemetry.String (scheme_string s.scheme));
        ]
    @@ fun () ->
    let trace =
      match trace with
      | None -> telemetry_trace
      | Some t ->
        fun e ->
          t e;
          telemetry_trace e
    in
    Core.Pass.execute ?cache ~trace flow input
