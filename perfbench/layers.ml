(* Direct, timed calls into single layers, made by the traced runs on the
   exact inputs a workload used.  Each helper returns what it did (a count)
   and how long it was busy, so run.py can report a rate per layer and add
   the busy times up against the workload's wall clock. *)

open Util

type tally = {
  mutable n : int;  (** work items: builds, arcs, steps, trials, ... *)
  mutable busy_s : float;
}

let tally () = { n = 0; busy_s = 0. }

let add t ~n dt =
  t.n <- t.n + n;
  t.busy_s <- t.busy_s +. dt

let timed t ~n f =
  let r, dt = time f in
  add t ~n dt;
  r

let tally_json t = Json.Obj [ ("n", int t.n); ("busy_s", num t.busy_s) ]

(* --- stdcell / device / circuit --- *)

type char_layers = {
  library : tally;  (** Stdcell.Library.cnfet builds *)
  variation : tally;  (** Device.Variation.prepare_sampler calls *)
  arcs : tally;  (** Stdcell.Characterize arcs *)
  steps : tally;  (** Circuit.Transient steps of the same arc netlists *)
  mutable transients_left : int;
      (** arc netlists still to re-simulate: a sample bounds the run time *)
}

let char_layers () =
  { library = tally (); variation = tally (); arcs = tally (); steps = tally ();
    transients_left = 16 }

let char_json c =
  Json.Obj
    [
      ("library", tally_json c.library);
      ("variation", tally_json c.variation);
      ("arcs", tally_json c.arcs);
      ("steps", tally_json c.steps);
    ]

(* The netlist Stdcell.Characterize.arc simulates for one pin, rebuilt
   node for node through the public Circuit / Gate_netlist API so the
   transient solver can be timed on its own. *)
let arc_netlist ~lib (entry : Stdcell.Library.entry) ~input ~load_inv1x =
  let vdd =
    match entry.Stdcell.Library.technology with
    | Stdcell.Library.Cnfet_tech t -> t.Device.Cnfet.vdd
    | Stdcell.Library.Cmos_tech t -> t.Device.Mosfet.vdd
  in
  let period = 2e-9 in
  let net = Circuit.Netlist.create () in
  let vdd_node = Circuit.Netlist.node net "vdd" in
  let vdd_meas = Circuit.Netlist.node net "vdd_meas" in
  Circuit.Netlist.add_vsource net vdd_node (Circuit.Stimulus.dc vdd);
  Circuit.Netlist.add_vsource net vdd_meas (Circuit.Stimulus.dc vdd);
  let out = Circuit.Netlist.node net "out" in
  let in_node = Circuit.Netlist.node net "in" in
  Circuit.Netlist.add_vsource net in_node
    (Circuit.Stimulus.pulse ~period ~rise:(period /. 100.) ~lo:0. ~hi:vdd);
  let side_nodes =
    List.map
      (fun (n, v) ->
        let node = Circuit.Netlist.node net ("side_" ^ n) in
        Circuit.Netlist.add_vsource net node
          (Circuit.Stimulus.dc (if v then vdd else 0.));
        (n, node))
      (Stdcell.Characterize.sensitize entry.Stdcell.Library.fn ~input)
  in
  let factory = Stdcell.Library.factory lib in
  Stdcell.Gate_netlist.add_gate net factory ~fn:entry.Stdcell.Library.fn
    ~drive:entry.Stdcell.Library.width_lambda_base ~prefix:"dut" ~out
    ~inputs:((input, in_node) :: side_nodes)
    ~vdd:vdd_meas;
  for k = 1 to load_inv1x do
    let dummy = Circuit.Netlist.node net (Printf.sprintf "load%d" k) in
    Stdcell.Gate_netlist.add_gate net factory ~fn:Logic.Cell_fun.inv
      ~drive:Stdcell.Library.base_width_lambda
      ~prefix:(Printf.sprintf "ld%d" k)
      ~out:dummy ~inputs:[ ("A", out) ] ~vdd:vdd_node
  done;
  let config =
    { Circuit.Transient.default_config with
      Circuit.Transient.t_stop = 3. *. period }
  in
  (net, config, [ in_node; out ])

(* Characterize one cell at each load, then simulate the first arc
   netlists again on the bare transient solver. *)
let characterize c ?variation ~lib entry ~loads =
  List.iter
    (fun load_inv1x ->
      let arcs =
        match
          time (fun () ->
              Stdcell.Characterize.all_arcs ?variation ~lib entry ~load_inv1x)
        with
        | Ok arcs, dt ->
          add c.arcs ~n:(List.length arcs) dt;
          arcs
        | Error d, _ -> fail "characterize: %s" (Core.Diag.to_string d)
      in
      List.iter
        (fun (a : Stdcell.Characterize.arc) ->
          if c.transients_left > 0 then begin
            c.transients_left <- c.transients_left - 1;
            let net, config, probes =
              arc_netlist ~lib entry ~input:a.Stdcell.Characterize.input
                ~load_inv1x
            in
            let r, dt =
              time (fun () -> Circuit.Transient.run ~config net ~probes)
            in
            add c.steps ~n:r.Circuit.Transient.steps dt
          end)
        arcs)
    loads

(* --- parallel --- *)

(* Run [f] with telemetry recording from a clean registry and add the
   pool's per-shard busy/idle gauges it leaves to [busy] and [total].
   The gauges hold the latest map_reduce call only, so [f] must make
   at most one. *)
let pool_gauges ~busy ~total f =
  Telemetry.reset ();
  Telemetry.enable ();
  let r = Fun.protect ~finally:Telemetry.disable f in
  List.iter
    (fun (name, v) ->
      if String.ends_with ~suffix:".busy_s" name then begin
        busy := !busy +. v;
        total := !total +. v
      end
      else if String.ends_with ~suffix:".idle_s" name then total := !total +. v)
    (Telemetry.collect ()).Telemetry.gauges;
  r

(* --- flow / layout / extract / geom --- *)

(* The drives a library must carry for these designs. *)
let drives_of designs =
  List.concat_map
    (fun (n : Flow.Netlist_ir.t) ->
      List.map
        (fun (i : Flow.Netlist_ir.instance) -> i.Flow.Netlist_ir.drive)
        n.Flow.Netlist_ir.instances)
    designs
  |> List.sort_uniq compare

let outline (c : Flow.Placer.placed_cell) =
  ( c.Flow.Placer.inst.Flow.Netlist_ir.inst_name,
    Geom.Rect.of_size ~x:c.Flow.Placer.x ~y:c.Flow.Placer.y
      ~w:c.Flow.Placer.cell_width ~h:c.Flow.Placer.cell_height )

(* Every fabric rectangle of every placed cell in die coordinates: the
   geometry a die-level CNT imperfection campaign queries. *)
let die_items ~lib ~scheme (p : Flow.Placer.t) =
  List.concat_map
    (fun (c : Flow.Placer.placed_cell) ->
      let inst = c.Flow.Placer.inst in
      let e =
        ok_or_fail "library lookup"
          (Stdcell.Library.find lib ~name:inst.Flow.Netlist_ir.cell
             ~drive:inst.Flow.Netlist_ir.drive)
      in
      let cell =
        match scheme with
        | `S1 -> e.Stdcell.Library.scheme1
        | `S2 -> e.Stdcell.Library.scheme2
      in
      List.map
        (fun (pl : Layout.Fabric.placed) ->
          ( Geom.Rect.translate ~dx:c.Flow.Placer.x ~dy:c.Flow.Placer.y
              pl.Layout.Fabric.rect,
            pl.Layout.Fabric.elem ))
        (cell.Layout.Cell.pun.Layout.Fabric.items
        @ cell.Layout.Cell.pdn.Layout.Fabric.items))
    p.Flow.Placer.cells

(* Seeded stray-CNT tracks across the die. *)
let tracks rng ~die_w ~die_h count =
  let coord bound = float_of_int (Random.State.int rng (max 1 bound)) in
  List.init count (fun _ ->
      let x0 = coord die_w in
      let y0 = coord die_h in
      let x1 = coord die_w in
      let y1 = coord die_h in
      Geom.Segment.make { Geom.Vec.x = x0; y = y0 } { Geom.Vec.x = x1; y = y1 })

type signoff = {
  drc : tally;  (** cells checked by Layout.Drc.check_outlines *)
  couplings : tally;  (** cells through Extract.Extractor.couplings *)
  crossing : tally;  (** track queries on the die-level Geom.Index *)
  mutable violations : int;
}

let signoff () =
  { drc = tally (); couplings = tally (); crossing = tally (); violations = 0 }

let signoff_json s =
  Json.Obj
    [
      ("drc", tally_json s.drc);
      ("couplings", tally_json s.couplings);
      ("crossing", tally_json s.crossing);
      ("violations", int s.violations);
    ]

(* The placement-level signoff of one flow result: outline DRC, coupling
   extraction, and [ntracks] crossing queries against an index of every
   die-level fabric rectangle (index build counted as crossing time). *)
let run_signoff s ~lib ~scheme ~rng ~ntracks (p : Flow.Placer.t) =
  let outlines = List.map outline p.Flow.Placer.cells in
  let ncells = List.length outlines in
  let v = timed s.drc ~n:ncells (fun () -> Layout.Drc.check_outlines outlines) in
  s.violations <- s.violations + List.length v;
  ignore
    (timed s.couplings ~n:ncells (fun () -> Extract.Extractor.couplings outlines));
  let soup =
    tracks rng ~die_w:p.Flow.Placer.die_width ~die_h:p.Flow.Placer.die_height
      ntracks
  in
  timed s.crossing ~n:ntracks (fun () ->
      let index = Geom.Index.build (die_items ~lib ~scheme p) in
      List.fold_left
        (fun acc seg -> acc + List.length (Geom.Index.query_segment index seg))
        0 soup)

(* Per-pass wall seconds of a flow report, by pass name. *)
let pass_seconds (r : Core.Pass.report) =
  List.map
    (fun (p : Core.Pass.pass_report) ->
      (p.Core.Pass.pass_name, p.Core.Pass.wall_s))
    r.Core.Pass.passes

(* The checks every flow output must pass: the GDS stream re-parses with
   one structure per unique cell plus the top, and outline DRC is clean. *)
let check_flow (r : Flow.Pipeline.result_t) ~violations =
  match Gds.Stream.of_bytes r.Flow.Pipeline.gds_bytes with
  | Error m -> Error ("GDS does not re-parse: " ^ m)
  | Ok g ->
    let want = List.length r.Flow.Pipeline.cells + 1 in
    let got = List.length g.Gds.Stream.structures in
    if got <> want then
      Error (Printf.sprintf "GDS has %d structures, expected %d" got want)
    else if violations > 0 then
      Error (Printf.sprintf "outline DRC found %d violations" violations)
    else Ok ()
