(* Flow tests: netlist IR validation and parsing, the NAND2/INV mapper,
   the full adder, both placers and the GDS export of placed designs. *)

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ok r = Core.Diag.ok_exn r

let inst name cell drive output conns =
  { Flow.Netlist_ir.inst_name = name; cell; drive; output; conns }

let simple_netlist () =
  {
    Flow.Netlist_ir.design = "buf2";
    inputs = [ "A" ];
    outputs = [ "Z" ];
    instances =
      [ inst "u1" "INV" 1 "w1" [ ("A", "A") ];
        inst "u2" "INV" 1 "Z" [ ("A", "w1") ] ];
  }

let validate_good () =
  checkb "valid" true (Flow.Netlist_ir.validate (simple_netlist ()) = Ok ())

(* [validate]'s diagnostic, as the CLI prints it *)
let validation n =
  match Flow.Netlist_ir.validate n with
  | Ok () -> "ok"
  | Error d -> Core.Diag.to_string d

(* Z and Y are each driven twice, Z first: the smallest such net is named *)
let validate_multi_driver () =
  let n =
    { (simple_netlist ()) with
      Flow.Netlist_ir.instances =
        [ inst "u1" "INV" 1 "Z" [ ("A", "A") ];
          inst "u2" "INV" 1 "Z" [ ("A", "A") ];
          inst "u3" "INV" 1 "Y" [ ("A", "A") ];
          inst "u4" "INV" 1 "Y" [ ("A", "A") ] ] }
  in
  Alcotest.(check string) "multi driver"
    "netlist: error: net Y has multiple drivers (net=Y)" (validation n)

let validate_undriven () =
  let n =
    { (simple_netlist ()) with
      Flow.Netlist_ir.instances = [ inst "u1" "INV" 1 "Z" [ ("A", "ghost") ] ] }
  in
  Alcotest.(check string) "undriven input"
    "netlist: error: instance u1 reads undriven net ghost (instance=u1, \
     net=ghost)"
    (validation n)

let validate_cycle () =
  let n =
    {
      Flow.Netlist_ir.design = "loop";
      inputs = [];
      outputs = [ "Z" ];
      instances =
        [ inst "u1" "INV" 1 "Z" [ ("A", "w") ];
          inst "u2" "INV" 1 "w" [ ("A", "Z") ] ];
    }
  in
  Alcotest.(check string) "cycle rejected"
    "netlist: error: combinational cycle through net Z (net=Z)" (validation n)

(* The rest of the rules, each on the buffer chain with one defect; the
   expected strings are those of the name-keyed validation the interned
   one replaced. *)
let validate_diagnostics () =
  let base = simple_netlist () in
  let cases =
    [
      ( "undriven output",
        { base with Flow.Netlist_ir.outputs = [ "Z"; "Q" ] },
        "netlist: error: design output Q is undriven (output=Q)" );
      ( "unknown cell",
        { base with
          Flow.Netlist_ir.instances = [ inst "u1" "FOO" 1 "Z" [ ("A", "A") ] ] },
        "netlist: error: instance u1 uses unknown cell FOO (instance=u1, \
         cell=FOO)" );
      ( "unbound pin",
        { base with
          Flow.Netlist_ir.instances =
            [ inst "u1" "AOI21" 1 "Z" [ ("A1", "A"); ("B", "A") ] ] },
        "netlist: error: instance u1 leaves pin A2 unbound (instance=u1, \
         pin=A2)" );
      (* a loop that no design output reads is not searched *)
      ( "cycle outside every output cone",
        { base with
          Flow.Netlist_ir.instances =
            base.Flow.Netlist_ir.instances
            @ [ inst "u3" "INV" 1 "p" [ ("A", "q") ];
                inst "u4" "INV" 1 "q" [ ("A", "p") ] ] },
        "ok" );
    ]
  in
  List.iter
    (fun (label, n, expected) ->
      Alcotest.(check string) label expected (validation n))
    cases

let eval_buffer () =
  let n = simple_netlist () in
  checkb "buffer of true" true (ok (Flow.Netlist_ir.eval n (fun _ -> true) "Z"));
  checkb "buffer of false" false (ok (Flow.Netlist_ir.eval n (fun _ -> false) "Z"))

let stats_census () =
  let fa = Flow.Full_adder.netlist () in
  let stats = Flow.Netlist_ir.stats fa in
  check_int "nine NAND2_2X" 9 (List.assoc "NAND2_2X" stats);
  check_int "two INV_4X" 2 (List.assoc "INV_4X" stats)

let parse_roundtrip () =
  let n = Flow.Full_adder.netlist () in
  match Flow.Netlist_ir.of_string (Flow.Netlist_ir.to_string n) with
  | Error e -> Alcotest.fail (Core.Diag.to_string e)
  | Ok back ->
    Alcotest.(check string) "design" n.Flow.Netlist_ir.design
      back.Flow.Netlist_ir.design;
    Alcotest.(check (list string)) "inputs" n.Flow.Netlist_ir.inputs
      back.Flow.Netlist_ir.inputs;
    check_int "instances" (List.length n.Flow.Netlist_ir.instances)
      (List.length back.Flow.Netlist_ir.instances);
    checkb "still a full adder" true
      (Logic.Truth.equal
         (ok (Flow.Netlist_ir.truth_of_output back ~output:"COUT"))
         (ok (Flow.Netlist_ir.truth_of_output n ~output:"COUT")))

let parse_errors () =
  checkb "garbage rejected" true
    (match Flow.Netlist_ir.of_string "inst broken" with
    | Error _ -> true
    | Ok _ -> false);
  checkb "bad drive rejected" true
    (match Flow.Netlist_ir.of_string "inst u1 INV x out=z a=b" with
    | Error _ -> true
    | Ok _ -> false);
  checkb "comments skipped" true
    (match Flow.Netlist_ir.of_string "# hello\ndesign d\ninput A\noutput A\n" with
    | Ok _ -> true
    | Error _ -> false)

let full_adder_correct () =
  checkb "full adder verifies" true (Flow.Full_adder.check () = Ok ())

let mapper_simple () =
  let spec = [ ("Z", Logic.Expr.(And [ var "A"; var "B"; var "C" ])) ] in
  let n = ok (Flow.Mapper.map_exprs ~design:"and3" spec) in
  checkb "validates" true (Flow.Netlist_ir.validate n = Ok ());
  checkb "equivalent" true (Flow.Mapper.check_equivalence n spec = Ok ());
  checkb "uses only NAND2 and INV" true
    (List.for_all
       (fun (i : Flow.Netlist_ir.instance) ->
         i.Flow.Netlist_ir.cell = "NAND2" || i.Flow.Netlist_ir.cell = "INV")
       n.Flow.Netlist_ir.instances)

let mapper_xor_sharing () =
  (* mapping sum and carry together shares the A xor B cone *)
  let spec =
    [ ("S", Flow.Full_adder.sum_expr); ("CO", Flow.Full_adder.cout_expr) ]
  in
  let n = ok (Flow.Mapper.map_exprs ~design:"fa_mapped" spec) in
  checkb "validates" true (Flow.Netlist_ir.validate n = Ok ());
  checkb "equivalent" true (Flow.Mapper.check_equivalence n spec = Ok ())

let mapper_rejects_bad_drive () =
  let spec = [ ("Z", Logic.Expr.(And [ var "A"; var "B" ])) ] in
  List.iter
    (fun drive ->
      match Flow.Mapper.map_exprs ~design:"bad" ~drive spec with
      | Ok _ -> Alcotest.failf "drive %d accepted" drive
      | Error d ->
        Alcotest.(check string) "mapper stage" "mapper" d.Core.Diag.stage;
        checkb "drive in context" true
          (List.assoc_opt "drive" d.Core.Diag.context
          = Some (string_of_int drive)))
    [ 0; -1; -7 ];
  (* the smallest legal drive still maps *)
  checkb "drive 1 accepted" true
    (Result.is_ok (Flow.Mapper.map_exprs ~design:"ok" ~drive:1 spec))

let equivalence_names_mismatching_output () =
  let spec =
    [ ("Z1", Logic.Expr.(And [ var "A"; var "B" ]));
      ("Z2", Logic.Expr.(Or [ var "A"; var "B" ])) ]
  in
  let n = ok (Flow.Mapper.map_exprs ~design:"duo" spec) in
  (* corrupt the netlist: rewire Z2's driver so it computes NAND(A,B)
     instead of OR(A,B) — the structure still validates *)
  let corrupted =
    { n with
      Flow.Netlist_ir.instances =
        List.map
          (fun (i : Flow.Netlist_ir.instance) ->
            if i.Flow.Netlist_ir.output = "Z2" then
              { i with
                Flow.Netlist_ir.cell = "NAND2";
                conns = [ ("A", "A"); ("B", "B") ] }
            else i)
          n.Flow.Netlist_ir.instances }
  in
  checkb "corrupted netlist still validates" true
    (Flow.Netlist_ir.validate corrupted = Ok ());
  match Flow.Mapper.check_equivalence corrupted spec with
  | Ok () -> Alcotest.fail "corruption not detected"
  | Error d ->
    Alcotest.(check string) "mapper stage" "mapper" d.Core.Diag.stage;
    checkb "names the mismatching output" true
      (List.assoc_opt "output" d.Core.Diag.context = Some "Z2");
    checkb "does not blame the good output" true
      (List.assoc_opt "output" d.Core.Diag.context <> Some "Z1")

let positive_expr_gen =
  QCheck.Gen.(
    let var = oneofl [ "A"; "B"; "C" ] >|= Logic.Expr.var in
    fix
      (fun self depth ->
        if depth <= 0 then var
        else
          frequency
            [
              (2, var);
              ( 2,
                let* es = list_size (int_range 2 3) (self (depth - 1)) in
                return (Logic.Expr.and_list es) );
              ( 2,
                let* es = list_size (int_range 2 3) (self (depth - 1)) in
                return (Logic.Expr.or_list es) );
            ])
      2)

let mapper_random_equivalence =
  QCheck.Test.make ~name:"mapper preserves random functions" ~count:60
    (QCheck.make ~print:Logic.Expr.to_string positive_expr_gen)
    (fun e ->
      match Logic.Expr.simplify e with
      | Logic.Expr.Const _ -> true
      | _ ->
        let spec = [ ("Z", e) ] in
        let n = ok (Flow.Mapper.map_exprs ~design:"rnd" spec) in
        Flow.Netlist_ir.validate n = Ok ()
        && Flow.Mapper.check_equivalence n spec = Ok ())

let lib = Stdcell.Library.cnfet_exn ~drives:[ 1; 2; 4; 7; 9 ] ()
let cm_lib = Stdcell.Library.cmos_exn ~drives:[ 1; 2; 4; 7; 9 ] ()

let no_overlaps (p : Flow.Placer.t) =
  let rect (c : Flow.Placer.placed_cell) =
    Geom.Rect.of_size ~x:c.Flow.Placer.x ~y:c.Flow.Placer.y
      ~w:c.Flow.Placer.cell_width ~h:c.Flow.Placer.cell_height
  in
  let rec pairs = function
    | [] -> true
    | c :: rest ->
      List.for_all (fun d -> not (Geom.Rect.intersects (rect c) (rect d))) rest
      && pairs rest
  in
  pairs p.Flow.Placer.cells

let placer_rows () =
  let fa = Flow.Full_adder.netlist () in
  let p = ok (Flow.Placer.rows ~lib fa) in
  check_int "all cells placed" 13 (List.length p.Flow.Placer.cells);
  checkb "no overlaps" true (no_overlaps p);
  checkb "utilization in (0,1]" true
    (Flow.Placer.utilization p > 0. && Flow.Placer.utilization p <= 1.);
  checkb "die covers cells" true
    (List.for_all
       (fun (c : Flow.Placer.placed_cell) ->
         c.Flow.Placer.x + c.Flow.Placer.cell_width <= p.Flow.Placer.die_width
         && c.Flow.Placer.y + c.Flow.Placer.cell_height
            <= p.Flow.Placer.die_height)
       p.Flow.Placer.cells)

let placer_shelves () =
  let fa = Flow.Full_adder.netlist () in
  let p = ok (Flow.Placer.shelves ~lib fa) in
  check_int "all cells placed" 13 (List.length p.Flow.Placer.cells);
  checkb "no overlaps" true (no_overlaps p);
  checkb "better utilization than rows" true
    (Flow.Placer.utilization p
    > Flow.Placer.utilization (ok (Flow.Placer.rows ~lib fa)))

let placer_scheme_gains () =
  let fa = Flow.Full_adder.netlist () in
  let s1 = Flow.Placer.die_area (ok (Flow.Placer.rows ~lib fa)) in
  let s2 = Flow.Placer.die_area (ok (Flow.Placer.shelves ~lib fa)) in
  let cmos = Flow.Placer.die_area (ok (Flow.Placer.rows ~lib:cm_lib fa)) in
  checkb "scheme1 beats CMOS (paper ~1.4x)" true
    (float_of_int cmos /. float_of_int s1 > 1.2);
  checkb "scheme2 beats scheme1 (paper: 1.6x vs 1.4x)" true (s2 < s1)

let wirelength_positive () =
  let fa = Flow.Full_adder.netlist () in
  let p = ok (Flow.Placer.rows ~lib fa) in
  checkb "positive wirelength" true (Flow.Placer.wirelength_estimate p fa > 0)

(* A generated design and the library the CLI builds for it, over the
   drives it uses; shared by the tests that place the big designs. *)
let generated =
  let memo = Hashtbl.create 8 in
  fun spec ->
    match Hashtbl.find_opt memo spec with
    | Some d -> d
    | None ->
      let n = ok (Flow.Generate.of_spec spec) in
      let drives =
        List.sort_uniq compare
          (List.map
             (fun (i : Flow.Netlist_ir.instance) -> i.Flow.Netlist_ir.drive)
             n.Flow.Netlist_ir.instances)
      in
      let d = (n, Stdcell.Library.cnfet_exn ~drives ()) in
      Hashtbl.add memo spec d;
      d

(* HPWL pinned at both schemes, at the values the net-sorting estimate
   gave before it summed its boxes directly. *)
let wirelength_pinned () =
  List.iter
    (fun (design, s1, s2) ->
      let n, lib = generated design in
      check_int (design ^ " S1 hpwl") s1
        (Flow.Placer.wirelength_estimate (ok (Flow.Placer.rows ~lib n)) n);
      check_int (design ^ " S2 hpwl") s2
        (Flow.Placer.wirelength_estimate (ok (Flow.Placer.shelves ~lib n)) n))
    [
      ("mult8", 77824, 182069);
      ("mult32", 3573962, 13501046);
      ("rand10000s1", 17841926, 20033501);
    ]

(* A library of one INV per size, at drives 1, 2, ...: instance [k] of
   the matching netlist is sized exactly [List.nth sizes k] under S2. *)
let sized_design sizes =
  let base = Stdcell.Library.find_exn lib ~name:"INV" ~drive:1 in
  let entries =
    List.mapi
      (fun k (w, h) ->
        { base with
          Stdcell.Library.cell_name = Printf.sprintf "INV_%dX" (k + 1);
          drive = k + 1;
          scheme2 =
            { base.Stdcell.Library.scheme2 with
              Layout.Cell.width = w; height = h } })
      sizes
  in
  let instances =
    List.mapi
      (fun k _ ->
        inst (Printf.sprintf "u%d" k) "INV" (k + 1) (Printf.sprintf "n%d" k)
          [ ("A", "A") ])
      sizes
  in
  ( { lib with Stdcell.Library.entries },
    { Flow.Netlist_ir.design = "sized"; inputs = [ "A" ]; outputs = [];
      instances } )

(* Shelf packing equals the list-based packer it replaced, placement for
   placement: random sizes, all-equal heights (long shelves), and a cell
   wider than the bin (a shelf full from its first cell), at aspects
   0.5-2.0. *)
let shelves_match_oracle =
  QCheck.Test.make ~name:"shelves equal the list-based oracle" ~count:300
    QCheck.(
      make
        ~print:(fun (sizes, aspect) ->
          Printf.sprintf "aspect %h: %s" aspect
            (String.concat " "
               (List.map (fun (w, h) -> Printf.sprintf "%dx%d" w h) sizes)))
        Gen.(
          let* kind = int_range 0 2 in
          let* h0 = int_range 1 30 in
          let height = if kind = 1 then return h0 else int_range 1 30 in
          let* sizes = list_size (int_range 0 80) (pair (int_range 1 40) height) in
          let* wide = int_range 200 2000 in
          let* aspect = float_range 0.5 2.0 in
          return ((if kind = 2 then (wide, h0) :: sizes else sizes), aspect)))
    (fun (sizes, aspect) ->
      let lib, n = sized_design sizes in
      Flow.Placer.shelves ~lib ~aspect n = Shelves_oracle.shelves ~lib ~aspect n)

(* --- synthetic netlist generators --- *)

let generate_multiplier_correct () =
  checkb "mult3 exhaustive" true (Flow.Generate.multiplier_check ~bits:3 = Ok ());
  checkb "mult4 exhaustive" true (Flow.Generate.multiplier_check ~bits:4 = Ok ())

let generate_multiplier_scales () =
  let n = ok (Flow.Generate.multiplier ~bits:8) in
  checkb "validates" true (Flow.Netlist_ir.validate n = Ok ());
  checkb "hundreds of instances" true
    (List.length n.Flow.Netlist_ir.instances > 400);
  check_int "product width" 16 (List.length n.Flow.Netlist_ir.outputs);
  checkb "bits out of range rejected" true
    (match Flow.Generate.multiplier ~bits:0 with
    | Error _ -> true
    | Ok _ -> false)

let generate_lfsr_correct () =
  checkb "lfsr16 x40" true
    (Flow.Generate.lfsr_check ~bits:16 ~steps:40 ~seed:0xACE1 = Ok ());
  checkb "lfsr8 x13" true
    (Flow.Generate.lfsr_check ~bits:8 ~steps:13 ~seed:0x5A = Ok ())

let generate_random_deterministic () =
  let a = ok (Flow.Generate.random_logic ~gates:200 ~inputs:8 ~seed:7) in
  let b = ok (Flow.Generate.random_logic ~gates:200 ~inputs:8 ~seed:7) in
  let c = ok (Flow.Generate.random_logic ~gates:200 ~inputs:8 ~seed:8) in
  checkb "validates" true (Flow.Netlist_ir.validate a = Ok ());
  checkb "same seed, same design" true (a = b);
  checkb "different seed, different design" true (a <> c)

let generate_of_spec () =
  let design s = (ok (Flow.Generate.of_spec s)).Flow.Netlist_ir.design in
  Alcotest.(check string) "mult spec" "mult4" (design "mult4");
  Alcotest.(check string) "lfsr spec" "lfsr8x5" (design "lfsr8x5");
  Alcotest.(check string) "rand spec" "rand50s3" (design "rand50s3");
  checkb "full_adder spec" true (design "full_adder" <> "");
  List.iter
    (fun bad ->
      match Flow.Generate.of_spec bad with
      | Ok _ -> Alcotest.failf "spec %s accepted" bad
      | Error d ->
        let s = Core.Diag.to_string d in
        checkb (bad ^ " named in diagnostic") true
          (List.mem ("spec", bad) d.Core.Diag.context && String.length s > 0))
    [ "mult"; "multx"; "lfsr16"; "rand9"; "tree8"; "" ]

(* --- placer error paths: diagnostics verbatim --- *)

let lib1 = Stdcell.Library.cnfet_exn ~drives:[ 1 ] ()

let with_first_instance f n =
  { n with
    Flow.Netlist_ir.instances =
      (match n.Flow.Netlist_ir.instances with
      | i :: rest -> f i :: rest
      | [] -> []) }

let placer_unknown_cell_diag () =
  let n =
    with_first_instance
      (fun i -> { i with Flow.Netlist_ir.cell = "XNOR3" })
      (ok (Flow.Generate.multiplier ~bits:2))
  in
  let expect =
    "placer: error: no cell XNOR3 at drive 1 in library cnfet65 \
     (library=cnfet65, cell=XNOR3, drive=1, available_drives=, \
     origin=library, instance=g1)"
  in
  List.iter
    (fun (name, place) ->
      match place ~lib:lib1 n with
      | Ok _ -> Alcotest.failf "%s placed an unknown cell" name
      | Error d ->
        Alcotest.(check string) (name ^ " diagnostic") expect
          (Core.Diag.to_string d))
    [
      ("rows", fun ~lib n -> Flow.Placer.rows ~lib n);
      ("shelves", fun ~lib n -> Flow.Placer.shelves ~lib n);
    ]

let placer_unknown_drive_diag () =
  let n =
    with_first_instance
      (fun i -> { i with Flow.Netlist_ir.drive = 9 })
      (ok (Flow.Generate.multiplier ~bits:2))
  in
  let expect =
    "placer: error: no cell NAND2 at drive 9 in library cnfet65 \
     (library=cnfet65, cell=NAND2, drive=9, available_drives=1, \
     origin=library, instance=g1)"
  in
  List.iter
    (fun (name, place) ->
      match place ~lib:lib1 n with
      | Ok _ -> Alcotest.failf "%s placed an unknown drive" name
      | Error d ->
        Alcotest.(check string) (name ^ " diagnostic") expect
          (Core.Diag.to_string d))
    [
      ("rows", fun ~lib n -> Flow.Placer.rows ~lib n);
      ("shelves", fun ~lib n -> Flow.Placer.shelves ~lib n);
    ]

let gds_export_placement () =
  let fa = Flow.Full_adder.netlist () in
  let p = ok (Flow.Placer.shelves ~lib fa) in
  let bytes = ok (Flow.Gds_export.placement ~lib ~scheme:`S2 ~name:"fa" p) in
  (* top + unique cells: INV_{4,7,9}X + NAND2_2X = 5 structures *)
  match Gds.Stream.of_bytes bytes with
  | Ok back ->
    check_int "round trip structures" 5 (List.length back.Gds.Stream.structures)
  | Error e -> Alcotest.fail e

(* GDS bytes of the flow pinned at the commit before the streaming
   writer: an exporter that reorders a single element fails here, where a
   round trip or a structure count would pass.  Libraries are built as
   the CLI builds them, over the drives the design uses. *)
let gds_goldens () =
  let goldens =
    [
      ("full_adder", `S1, "767a392b564acf7377fd9d77048875e3", 19386, 5);
      ("full_adder", `S2, "0728b431002ee0d26ae49fd18623faaa", 19386, 5);
      ("ripple8", `S1, "7b7458088c584db0fc1c22f640f2aa6f", 125110, 5);
      ("ripple8", `S2, "e82f3d0f9b02815ff0d2c73c1ab0d27e", 125110, 5);
      ("lfsr16x40", `S1, "f4e96acddd2b01844a33be3ef54e3b5a", 419096, 3);
      ("lfsr16x40", `S2, "93d120c0022e4584ef93f9820e5cdfb5", 419096, 3);
      ("mult11", `S1, "dc49038ef3dc783d30d331bfb4597472", 1563568, 5);
      ("mult11", `S2, "c12cead0dae74262a781b4283e7a96e7", 1563568, 5);
      ("mult32", `S1, "ace1f366841b658d02cb40571b47f499", 14038576, 5);
      ("mult32", `S2, "58c7516f506a76ff78c78cdb2faae9e0", 14038576, 5);
      ("rand10000s1", `S1, "8bfe53635c4ecba01b02cfdadbf39d8d", 21699836, 9);
      ("rand10000s1", `S2, "cfdd33624f53d34820d41d6a3a2029f7", 21699836, 9);
    ]
  in
  List.iter
    (fun (design, scheme, digest, bytes, structures) ->
      let label =
        Printf.sprintf "%s %s" design
          (match scheme with `S1 -> "S1" | `S2 -> "S2")
      in
      let n, lib = generated design in
      let result, report =
        Flow.Pipeline.run (Flow.Pipeline.spec_of_netlist ~scheme ~lib n)
      in
      let r = ok result in
      Alcotest.(check string) (label ^ " digest") digest
        (Digest.to_hex (Digest.string r.Flow.Pipeline.gds_bytes));
      check_int (label ^ " length") bytes
        (String.length r.Flow.Pipeline.gds_bytes);
      let export =
        List.find
          (fun (e : Core.Pass.pass_report) -> e.Core.Pass.pass_name = "export")
          report.Core.Pass.passes
      in
      Alcotest.(check (list (pair string int)))
        (label ^ " export counters")
        [ ("structures", structures); ("gds_bytes", bytes) ]
        (Lazy.force export.Core.Pass.counters))
    goldens

(* The order contract of Gds_export, from an oracle that knows nothing of
   the writer: the top structure holds every instance's translated cell
   rectangles grouped by layer, layers by last occurrence (most recent
   first), each layer in placement order; then one structure per cell in
   first-reference order, holding the cell's rectangles layer by layer. *)
let expected_structures ~lib ~scheme ~name (p : Flow.Placer.t) =
  let layout (pc : Flow.Placer.placed_cell) =
    let e = ok (Flow.Placer.entry_for lib pc.Flow.Placer.inst) in
    match scheme with
    | `S1 -> e.Stdcell.Library.scheme1
    | `S2 -> e.Stdcell.Library.scheme2
  in
  let elements ~dx ~dy layers =
    List.concat_map
      (fun (layer, region) ->
        List.map
          (fun r ->
            Gds.Stream.element_of_rect
              ~layer:(Pdk.Layer.gds_number layer)
              (Geom.Rect.translate ~dx ~dy r))
          (Geom.Region.rects region))
      layers
  in
  let flat =
    List.concat_map
      (fun (pc : Flow.Placer.placed_cell) ->
        List.map
          (fun entry -> (fst entry, [ entry ], pc))
          (Layout.Cell.layers (layout pc)))
      p.Flow.Placer.cells
  in
  let by_last_occurrence =
    List.fold_left
      (fun acc (layer, _, _) -> layer :: List.filter (( <> ) layer) acc)
      [] flat
  in
  let top =
    List.concat_map
      (fun layer ->
        List.concat_map
          (fun (l, entry, (pc : Flow.Placer.placed_cell)) ->
            if l = layer then
              elements ~dx:pc.Flow.Placer.x ~dy:pc.Flow.Placer.y entry
            else [])
          flat)
      by_last_occurrence
  in
  let cells =
    List.fold_left
      (fun acc pc ->
        let l = layout pc in
        if List.mem_assoc l.Layout.Cell.name acc then acc
        else (l.Layout.Cell.name, l) :: acc)
      [] p.Flow.Placer.cells
    |> List.rev
  in
  { Gds.Stream.sname = name ^ "_top"; elements = top }
  :: List.map
       (fun (sname, l) ->
         {
           Gds.Stream.sname;
           elements = elements ~dx:0 ~dy:0 (Layout.Cell.layers l);
         })
       cells

let gds_export_order =
  QCheck.Test.make ~name:"gds export order contract" ~count:25
    QCheck.(
      make
        ~print:(fun (g, i, s, s2) ->
          Printf.sprintf "rand%ds%d inputs=%d %s" g s i
            (if s2 then "S2" else "S1"))
        Gen.(
          quad (int_range 4 60) (int_range 3 6) (int_range 0 1000) bool))
    (fun (gates, inputs, seed, s2) ->
      let n = ok (Flow.Generate.random_logic ~gates ~inputs ~seed) in
      let scheme = if s2 then `S2 else `S1 in
      let p =
        ok
          (if s2 then Flow.Placer.shelves ~lib n else Flow.Placer.rows ~lib n)
      in
      let bytes = ok (Flow.Gds_export.placement ~lib ~scheme ~name:"r" p) in
      match Gds.Stream.of_bytes bytes with
      | Error e -> QCheck.Test.fail_report e
      | Ok g ->
        g.Gds.Stream.libname = "r"
        && g.Gds.Stream.structures
           = expected_structures ~lib ~scheme ~name:"r" p)

(* A name rides in a LIBNAME or STRNAME record, whose length is a 16-bit
   field: the top structure's "<design>_top" pads to the 65534-byte limit
   at a 65526-character design name. *)
let gds_long_design_name () =
  let run chars =
    let n =
      { (simple_netlist ()) with
        Flow.Netlist_ir.design = String.make chars 'd' }
    in
    fst (Flow.Pipeline.run (Flow.Pipeline.spec_of_netlist ~scheme:`S1 ~lib n))
  in
  (match run 65526 with
  | Error d -> Alcotest.fail (Core.Diag.to_string d)
  | Ok r -> (
    match Gds.Stream.of_bytes r.Flow.Pipeline.gds_bytes with
    | Error e -> Alcotest.fail e
    | Ok g ->
      check_int "libname" 65526 (String.length g.Gds.Stream.libname);
      match g.Gds.Stream.structures with
      | [ top; _ ] ->
        checkb "top structure name" true
          (top.Gds.Stream.sname = String.make 65526 'd' ^ "_top")
      | _ -> Alcotest.fail "expected the top structure and one cell"));
  match run 65527 with
  | Ok _ -> Alcotest.fail "a 65536-byte STRNAME record was written"
  | Error d ->
    Alcotest.(check string) "stage" "gds_export" d.Core.Diag.stage;
    Alcotest.(check (option string)) "record" (Some "STRNAME")
      (List.assoc_opt "record" d.Core.Diag.context);
    Alcotest.(check (option string)) "length" (Some "65536")
      (List.assoc_opt "length" d.Core.Diag.context);
    checkb "names the top structure" true
      (match List.assoc_opt "structure" d.Core.Diag.context with
      | Some s -> String.length s < 100 && String.sub s 0 4 = "dddd"
      | None -> false)

(* Signoff results at 10^4-rectangle scale, pinned at the commit before
   the flat-grid Geom.Index: die-level crossing queries over every
   translated fabric rectangle of mult11 (as the scale bench builds
   them), placement-level DRC and coupling extraction.  Floats print in
   %h, so a result that moves by one ulp or one position fails here. *)
let signoff_goldens () =
  let goldens =
    [
      ( `S1, 10967, "10a97b13eb850d24ee794db805a192cd",
        "4bb1f791f20b855361590b3674b7b463", 1855,
        "b3210d16861ae6d5447cd6d78c5a9588" );
      ( `S2, 10967, "1b1d1b9cea9597e5b259186097f4c705",
        "077e6952797a2e546c9f465b9f6eec6a", 2247,
        "a43565f30a7e2dbdf48834432115bb1a" );
    ]
  in
  let element = function
    | Layout.Fabric.Contact Logic.Switch_graph.Vdd -> "vdd"
    | Layout.Fabric.Contact Logic.Switch_graph.Gnd -> "gnd"
    | Layout.Fabric.Contact Logic.Switch_graph.Out -> "out"
    | Layout.Fabric.Contact (Logic.Switch_graph.Internal k) ->
      Printf.sprintf "n%d" k
    | Layout.Fabric.Gate g -> "g" ^ g
    | Layout.Fabric.Etch -> "etch"
  in
  let digest f xs =
    let b = Buffer.create 4096 in
    List.iter (fun x -> Buffer.add_string b (f x); Buffer.add_char b '\n') xs;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let n = ok (Flow.Generate.of_spec "mult11") in
  let lib = Stdcell.Library.cnfet_exn ~drives:[ 1 ] () in
  List.iter
    (fun (scheme, nrects, hits_digest, drc_digest, npairs, pairs_digest) ->
      let label = match scheme with `S1 -> "S1" | `S2 -> "S2" in
      let r =
        ok (fst (Flow.Pipeline.run (Flow.Pipeline.spec_of_netlist ~scheme ~lib n)))
      in
      let p = r.Flow.Pipeline.placement in
      let items =
        List.concat_map
          (fun (pc : Flow.Placer.placed_cell) ->
            let e = ok (Flow.Placer.entry_for lib pc.Flow.Placer.inst) in
            let cell =
              match scheme with
              | `S1 -> e.Stdcell.Library.scheme1
              | `S2 -> e.Stdcell.Library.scheme2
            in
            List.map
              (fun (pl : Layout.Fabric.placed) ->
                ( Geom.Rect.translate ~dx:pc.Flow.Placer.x ~dy:pc.Flow.Placer.y
                    pl.Layout.Fabric.rect,
                  pl.Layout.Fabric.elem ))
              (cell.Layout.Cell.pun.Layout.Fabric.items
              @ cell.Layout.Cell.pdn.Layout.Fabric.items))
          p.Flow.Placer.cells
      in
      check_int (label ^ " fabric rects") nrects (List.length items);
      let index = Geom.Index.build items in
      (* even tracks have integer endpoints, which land on box edges *)
      let rng = Random.State.make [| 0x51f; nrects |] in
      let coord i bound =
        if i mod 2 = 0 then float_of_int (Random.State.int rng bound)
        else Random.State.float rng (float_of_int bound)
      in
      let tracks =
        List.init 50 (fun i ->
            let w = p.Flow.Placer.die_width and h = p.Flow.Placer.die_height in
            let x0 = coord i w in
            let y0 = coord i h in
            let x1 = coord i w in
            let y1 = coord i h in
            Geom.Segment.make (Geom.Vec.v x0 y0) (Geom.Vec.v x1 y1))
      in
      let hits =
        List.mapi
          (fun i s ->
            String.concat " "
              (string_of_int i
              :: List.map
                   (fun (t0, t1, e) -> Printf.sprintf "%h,%h,%s" t0 t1 (element e))
                   (Geom.Index.query_segment index s)))
          tracks
      in
      Alcotest.(check string) (label ^ " crossing hits") hits_digest
        (digest Fun.id hits);
      let outlines =
        List.map
          (fun (pc : Flow.Placer.placed_cell) ->
            ( pc.Flow.Placer.inst.Flow.Netlist_ir.inst_name,
              Geom.Rect.of_size ~x:pc.Flow.Placer.x ~y:pc.Flow.Placer.y
                ~w:pc.Flow.Placer.cell_width ~h:pc.Flow.Placer.cell_height ))
          p.Flow.Placer.cells
      in
      (* the placement is legal; inflated outlines overlap their
         neighbours and give the DRC query something to report *)
      let inflated = List.map (fun (n, r) -> (n, Geom.Rect.inflate 1 r)) outlines in
      let violation (v : Layout.Drc.violation) =
        Printf.sprintf "%s|%s|%s" v.Layout.Drc.rule v.Layout.Drc.detail
          (Geom.Rect.to_string v.Layout.Drc.where)
      in
      check_int (label ^ " outline DRC") 0
        (List.length (Layout.Drc.check_outlines outlines));
      Alcotest.(check string) (label ^ " inflated outline DRC") drc_digest
        (digest violation (Layout.Drc.check_outlines inflated));
      let pairs = Extract.Extractor.couplings outlines in
      check_int (label ^ " coupling pairs") npairs (List.length pairs);
      Alcotest.(check string) (label ^ " couplings") pairs_digest
        (digest
           (fun (c : Extract.Extractor.coupling) ->
             Printf.sprintf "%s %s %h" c.Extract.Extractor.a
               c.Extract.Extractor.b c.Extract.Extractor.cap_f)
           pairs))
    goldens

let suite =
  [
    Alcotest.test_case "validate good" `Quick validate_good;
    Alcotest.test_case "validate multi-driver" `Quick validate_multi_driver;
    Alcotest.test_case "validate undriven" `Quick validate_undriven;
    Alcotest.test_case "validate cycle" `Quick validate_cycle;
    Alcotest.test_case "validate diagnostics" `Quick validate_diagnostics;
    Alcotest.test_case "eval buffer" `Quick eval_buffer;
    Alcotest.test_case "stats census" `Quick stats_census;
    Alcotest.test_case "parse round-trip" `Quick parse_roundtrip;
    Alcotest.test_case "parse errors" `Quick parse_errors;
    Alcotest.test_case "full adder correct" `Quick full_adder_correct;
    Alcotest.test_case "mapper AND3" `Quick mapper_simple;
    Alcotest.test_case "mapper shares XOR cone" `Quick mapper_xor_sharing;
    Alcotest.test_case "mapper rejects bad drive" `Quick
      mapper_rejects_bad_drive;
    Alcotest.test_case "equivalence names mismatching output" `Quick
      equivalence_names_mismatching_output;
    Alcotest.test_case "placer rows" `Quick placer_rows;
    Alcotest.test_case "placer shelves" `Quick placer_shelves;
    Alcotest.test_case "scheme area gains" `Quick placer_scheme_gains;
    Alcotest.test_case "wirelength positive" `Quick wirelength_positive;
    Alcotest.test_case "wirelength pinned" `Quick wirelength_pinned;
    QCheck_alcotest.to_alcotest shelves_match_oracle;
    Alcotest.test_case "gds export placement" `Quick gds_export_placement;
    Alcotest.test_case "gds goldens" `Quick gds_goldens;
    Alcotest.test_case "gds long design name" `Quick gds_long_design_name;
    Alcotest.test_case "signoff goldens" `Quick signoff_goldens;
    QCheck_alcotest.to_alcotest gds_export_order;
    Alcotest.test_case "generate: multiplier correct" `Quick
      generate_multiplier_correct;
    Alcotest.test_case "generate: multiplier scales" `Quick
      generate_multiplier_scales;
    Alcotest.test_case "generate: lfsr correct" `Quick generate_lfsr_correct;
    Alcotest.test_case "generate: random deterministic" `Quick
      generate_random_deterministic;
    Alcotest.test_case "generate: of_spec" `Quick generate_of_spec;
    Alcotest.test_case "placer unknown cell diagnostic" `Quick
      placer_unknown_cell_diag;
    Alcotest.test_case "placer unknown drive diagnostic" `Quick
      placer_unknown_drive_diag;
    QCheck_alcotest.to_alcotest mapper_random_equivalence;
  ]
