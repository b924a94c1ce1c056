(* Integration tests: the complete logic-to-GDSII flow and the cross-layer
   consistency of the design kit. *)

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let rules = Pdk.Rules.default
let ok r = Core.Diag.ok_exn r

(* spec -> map -> validate -> place (both schemes) -> stream -> parse *)
let logic_to_gdsii () =
  let spec =
    [
      ("Z1", Logic.Expr.(Or [ And [ var "A"; var "B" ]; var "C" ]));
      ("Z2", Logic.Expr.(And [ Or [ var "A"; var "C" ]; var "B" ]));
    ]
  in
  let netlist = ok (Flow.Mapper.map_exprs ~design:"duo" spec) in
  checkb "mapped netlist validates" true (Flow.Netlist_ir.validate netlist = Ok ());
  checkb "mapped netlist equivalent" true
    (Flow.Mapper.check_equivalence netlist spec = Ok ());
  let lib = Stdcell.Library.cnfet_exn ~drives:[ 1; 2 ] () in
  let p1 = ok (Flow.Placer.rows ~lib netlist) in
  let p2 = ok (Flow.Placer.shelves ~lib netlist) in
  check_int "rows place everything"
    (List.length netlist.Flow.Netlist_ir.instances)
    (List.length p1.Flow.Placer.cells);
  check_int "shelves place everything"
    (List.length netlist.Flow.Netlist_ir.instances)
    (List.length p2.Flow.Placer.cells);
  let bytes =
    ok (Flow.Gds_export.placement ~lib ~scheme:`S1 ~name:"duo" p1)
  in
  match Gds.Stream.of_bytes bytes with
  | Ok g -> checkb "gds parses back" true (List.length g.Gds.Stream.structures >= 2)
  | Error e -> Alcotest.fail e

(* layout-level truth equals gate-level truth equals spec for the mapped FA *)
let three_level_agreement () =
  let fa = Flow.Full_adder.netlist () in
  let spec_cout =
    Logic.Truth.of_fun ~inputs:fa.Flow.Netlist_ir.inputs (fun env ->
        if Logic.Expr.eval env Flow.Full_adder.cout_expr then Logic.Truth.T
        else Logic.Truth.F)
  in
  let gate_cout = ok (Flow.Netlist_ir.truth_of_output fa ~output:"COUT") in
  checkb "gate level = spec" true (Logic.Truth.equal gate_cout spec_cout);
  (* every cell used by the FA has a layout whose switch-level truth equals
     the cell function *)
  let lib = Stdcell.Library.cnfet_exn ~drives:[ 2; 4; 7; 9 ] () in
  List.iter
    (fun (i : Flow.Netlist_ir.instance) ->
      let e = ok (Flow.Placer.entry_for lib i) in
      checkb (e.Stdcell.Library.cell_name ^ " layout truth") true
        (Layout.Cell.check_function e.Stdcell.Library.scheme1 = Ok ()))
    fa.Flow.Netlist_ir.instances

(* immune synthesized layouts survive the injector; vulnerable do not *)
let immunity_end_to_end () =
  let fn =
    Cnfet.Synthesis.of_expr ~name:"CUSTOM"
      Logic.Expr.(Or [ And [ var "A"; var "B" ]; And [ var "C"; var "D" ] ])
  in
  let r = Cnfet.Synthesis.request ~drive:4 fn in
  let immune = Cnfet.Synthesis.immune_cell r in
  checkb "synthesized immune" true
    (Cnfet.Synthesis.verify_immunity ~trials:200 immune = Ok ());
  let _, vuln, _ = Cnfet.Synthesis.reference_cells r in
  checkb "vulnerable detected" true
    (match Cnfet.Synthesis.verify_immunity ~trials:200 vuln with
    | Error _ -> true
    | Ok () -> false)

(* characterization sees the same ordering as the raw FO4 experiment *)
let characterization_consistent_with_fo4 () =
  let cn = Stdcell.Library.cnfet_exn ~drives:[ 1 ] () in
  let cm = Stdcell.Library.cmos_exn ~drives:[ 1 ] () in
  let d lib =
    let e = Stdcell.Library.find_exn lib ~name:"INV" ~drive:1 in
    (ok (Stdcell.Characterize.arc ~lib e ~input:"A" ~load_inv1x:4))
      .Stdcell.Characterize.avg_delay_s
  in
  let gain = d cm /. d cn in
  checkb "CNFET INV 2-6x faster at FO4-like load" true (gain > 1.5 && gain < 8.)

(* extraction + geometry: bigger drive means bigger cell and parasitics *)
let monotone_scaling () =
  let metrics drive =
    let c =
      Layout.Cell.make_exn ~rules ~fn:(Logic.Cell_fun.nand 2)
        ~style:Layout.Cell.Immune_new ~scheme:Layout.Cell.Scheme1 ~drive
    in
    (Layout.Cell.footprint_area c, (Extract.Extractor.cell c).Extract.Extractor.out_cap_f)
  in
  let a3, c3 = metrics 3 and a10, c10 = metrics 10 in
  checkb "area grows" true (a10 > a3);
  checkb "parasitics grow" true (c10 > c3)

let netlist_file_flow () =
  (* write a netlist to disk, read it back, place it *)
  let fa = Flow.Full_adder.netlist () in
  let tmp = Filename.temp_file "fa" ".cnl" in
  let oc = open_out tmp in
  output_string oc (Flow.Netlist_ir.to_string fa);
  close_out oc;
  let ic = open_in tmp in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  match Flow.Netlist_ir.of_string s with
  | Error e -> Alcotest.fail (Core.Diag.to_string e)
  | Ok back ->
    let lib = Stdcell.Library.cnfet_exn ~drives:[ 2; 4; 7; 9 ] () in
    let p = ok (Flow.Placer.shelves ~lib back) in
    check_int "placed from file" 13 (List.length p.Flow.Placer.cells)

let suite =
  [
    Alcotest.test_case "logic to GDSII" `Slow logic_to_gdsii;
    Alcotest.test_case "three-level agreement" `Slow three_level_agreement;
    Alcotest.test_case "immunity end to end" `Slow immunity_end_to_end;
    Alcotest.test_case "characterization vs FO4" `Slow
      characterization_consistent_with_fo4;
    Alcotest.test_case "monotone scaling" `Quick monotone_scaling;
    Alcotest.test_case "netlist file flow" `Quick netlist_file_flow;
  ]

let () =
  Alcotest.run "cnfet-dk"
    [
      ("parallel", Test_parallel.suite);
      ("pass", Test_pass.suite);
      ("telemetry", Test_telemetry.suite);
      ("geom", Test_geom.suite);
      ("logic", Test_logic.suite);
      ("euler", Test_euler.suite);
      ("pdk", Test_pdk.suite);
      ("layout", Test_layout.suite);
      ("fault", Test_fault.suite);
      ("device", Test_device.suite);
      ("circuit", Test_circuit.suite);
      ("extract", Test_extract.suite);
      ("stdcell", Test_stdcell.suite);
      ("gds", Test_gds.suite);
      ("flow", Test_flow.suite);
      ("cnfet", Test_cnfet.suite);
      ("extensions", Test_extensions.suite);
      ("testgen", Test_testgen.suite);
      ("dse", Test_dse.suite);
      ("service", Test_service.suite);
      ("recovery", Test_recovery.suite);
      ("cli", Test_cli.suite);
      ("integration", suite);
    ]
