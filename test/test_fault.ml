(* Fault-injection tests: track geometry, crossing extraction, the Fig. 2
   vulnerable-vs-immune experiment, and immunity of the whole catalog. *)

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let rules = Pdk.Rules.default

let mk style name =
  Layout.Cell.make_exn ~rules ~fn:(Logic.Cell_fun.find name) ~style
    ~scheme:Layout.Cell.Scheme1 ~drive:4

(* a tiny hand-made fabric: [C_Vdd][gA][C_Out] with a row *)
let toy_fabric () =
  let c r elem = { Layout.Fabric.rect = r; elem } in
  let items =
    [
      c (Geom.Rect.of_size ~x:0 ~y:0 ~w:2 ~h:4)
        (Layout.Fabric.Contact Logic.Switch_graph.Vdd);
      c (Geom.Rect.of_size ~x:3 ~y:0 ~w:2 ~h:4) (Layout.Fabric.Gate "A");
      c (Geom.Rect.of_size ~x:6 ~y:0 ~w:2 ~h:4)
        (Layout.Fabric.Contact Logic.Switch_graph.Out);
    ]
  in
  Layout.Fabric.make ~polarity:Logic.Network.P_type
    ~rows:[ Geom.Rect.of_size ~x:0 ~y:0 ~w:8 ~h:4 ]
    items

let track_through_strip () =
  let f = toy_fabric () in
  let t = Fault.Track.horizontal ~y:2. ~x0:(-1.) ~x1:9. in
  let edges = Fault.Crossing.edges f t.Fault.Track.seg in
  check_int "one edge" 1 (List.length edges);
  (match edges with
  | [ e ] ->
    checkb "vdd-out" true
      (e.Logic.Switch_graph.src = Logic.Switch_graph.Vdd
      && e.Logic.Switch_graph.dst = Logic.Switch_graph.Out);
    Alcotest.(check (list string)) "gated by A" [ "A" ] e.Logic.Switch_graph.gates
  | _ -> Alcotest.fail "expected a single edge");
  (* track above the strip touches nothing *)
  let high = Fault.Track.horizontal ~y:5. ~x0:(-1.) ~x1:9. in
  check_int "no edges above" 0
    (List.length (Fault.Crossing.edges f high.Fault.Track.seg))

let etch_cuts_track () =
  let c r elem = { Layout.Fabric.rect = r; elem } in
  let items =
    [
      c (Geom.Rect.of_size ~x:0 ~y:0 ~w:2 ~h:4)
        (Layout.Fabric.Contact Logic.Switch_graph.Vdd);
      c (Geom.Rect.of_size ~x:3 ~y:0 ~w:2 ~h:4) Layout.Fabric.Etch;
      c (Geom.Rect.of_size ~x:6 ~y:0 ~w:2 ~h:4)
        (Layout.Fabric.Contact Logic.Switch_graph.Out);
    ]
  in
  let f =
    Layout.Fabric.make ~polarity:Logic.Network.P_type ~rows:[] items
  in
  let t = Fault.Track.horizontal ~y:2. ~x0:(-1.) ~x1:9. in
  check_int "etch cuts the CNT" 0
    (List.length (Fault.Crossing.edges f t.Fault.Track.seg))

let bare_corridor_shorts () =
  (* two contacts with nothing between: a stray CNT is a hard short *)
  let c r elem = { Layout.Fabric.rect = r; elem } in
  let items =
    [
      c (Geom.Rect.of_size ~x:0 ~y:0 ~w:2 ~h:4)
        (Layout.Fabric.Contact Logic.Switch_graph.Vdd);
      c (Geom.Rect.of_size ~x:6 ~y:0 ~w:2 ~h:4)
        (Layout.Fabric.Contact Logic.Switch_graph.Out);
    ]
  in
  let f = Layout.Fabric.make ~polarity:Logic.Network.P_type ~rows:[] items in
  let t = Fault.Track.horizontal ~y:2. ~x0:(-1.) ~x1:9. in
  match Fault.Crossing.edges f t.Fault.Track.seg with
  | [ e ] -> Alcotest.(check (list string)) "no gates" [] e.Logic.Switch_graph.gates
  | _ -> Alcotest.fail "expected one shorting edge"

let hits_ordered () =
  let f = toy_fabric () in
  let t = Fault.Track.horizontal ~y:1. ~x0:(-1.) ~x1:9. in
  let hs = Fault.Crossing.hits f t.Fault.Track.seg in
  check_int "three hits" 3 (List.length hs);
  let ats = List.map (fun (h : Fault.Crossing.hit) -> h.Fault.Crossing.at) hs in
  checkb "sorted" true (List.sort Stdlib.compare ats = ats)

let track_sampling_bounds () =
  let rng = Random.State.make [| 7 |] in
  let bbox = Geom.Rect.of_size ~x:0 ~y:0 ~w:20 ~h:10 in
  for _ = 1 to 100 do
    let t = Fault.Track.sample rng ~bbox ~max_angle_deg:8. ~margin:2. in
    let p = t.Fault.Track.seg.Geom.Segment.p in
    let q = t.Fault.Track.seg.Geom.Segment.q in
    checkb "spans box" true (p.Geom.Vec.x < 0. && q.Geom.Vec.x > 20.);
    let dy = Float.abs (q.Geom.Vec.y -. p.Geom.Vec.y) in
    let dx = q.Geom.Vec.x -. p.Geom.Vec.x in
    checkb "angle bounded" true (dy /. dx <= tan (8.5 *. Float.pi /. 180.))
  done

let vulnerable_nand2_fails () =
  let cell = mk Layout.Cell.Vulnerable "NAND2" in
  let o =
    Fault.Injector.run
      { Fault.Injector.default_config with Fault.Injector.trials = 300 }
      cell
  in
  checkb "vulnerable layout fails under misposition" true
    (o.Fault.Injector.functional_failures > 0);
  checkb "failures short the output" true (o.Fault.Injector.shorted_trials > 0);
  checkb "horizontal sweep finds the corridor" true
    (match Fault.Injector.horizontal_sweep cell with
    | Error _ -> true
    | Ok () -> false)

let immune_styles_pass_nand2 () =
  List.iter
    (fun style ->
      let cell = mk style "NAND2" in
      let o =
        Fault.Injector.run
          { Fault.Injector.default_config with Fault.Injector.trials = 300 }
          cell
      in
      check_int "no MC failures" 0 o.Fault.Injector.functional_failures;
      checkb "sweep immune" true
        (Fault.Injector.horizontal_sweep cell = Ok ()))
    [ Layout.Cell.Immune_new; Layout.Cell.Immune_old ]

let catalog_immune () =
  List.iter
    (fun fn ->
      List.iter
        (fun style ->
          let cell =
            Layout.Cell.make_exn ~rules ~fn ~style ~scheme:Layout.Cell.Scheme1
              ~drive:4
          in
          (match Fault.Injector.horizontal_sweep cell with
          | Ok () -> ()
          | Error ys ->
            Alcotest.failf "%s sweep: %d corridors" cell.Layout.Cell.name
              (List.length ys));
          let o =
            Fault.Injector.run
              { Fault.Injector.default_config with Fault.Injector.trials = 150 }
              cell
          in
          if o.Fault.Injector.functional_failures > 0 then
            Alcotest.failf "%s MC: %d/150" cell.Layout.Cell.name
              o.Fault.Injector.functional_failures)
        [ Layout.Cell.Immune_new; Layout.Cell.Immune_old ])
    Logic.Cell_fun.all

(* random fabrics + segments: hits come back sorted along the track, with
   parameters in [0,1] and midpoints inside the fabric bounding box *)
let fabric_arb =
  let elem_gen =
    QCheck.Gen.oneofl
      [
        Layout.Fabric.Contact Logic.Switch_graph.Vdd;
        Layout.Fabric.Contact Logic.Switch_graph.Out;
        Layout.Fabric.Contact (Logic.Switch_graph.Internal 1);
        Layout.Fabric.Gate "A";
        Layout.Fabric.Gate "B";
        Layout.Fabric.Etch;
      ]
  in
  QCheck.make
    ~print:(fun (items, seg) ->
      Format.asprintf "%d items, track %a" (List.length items) Geom.Segment.pp
        seg)
    QCheck.Gen.(
      let item =
        let* x = int_range 0 25 in
        let* y = int_range 0 12 in
        let* w = int_range 1 6 in
        let* h = int_range 1 6 in
        let* elem = elem_gen in
        return { Layout.Fabric.rect = Geom.Rect.of_size ~x ~y ~w ~h; elem }
      in
      let* items = list_size (int_range 1 10) item in
      let* y0 = float_range (-2.) 16. in
      let* y1 = float_range (-2.) 16. in
      let seg =
        Geom.Segment.make (Geom.Vec.v (-2.) y0) (Geom.Vec.v 35. y1)
      in
      return (items, seg))

let hits_sorted_and_in_bbox =
  QCheck.Test.make ~count:500
    ~name:"Crossing.hits: sorted by track parameter, inside the fabric bbox"
    fabric_arb
    (fun (items, seg) ->
      let f =
        Layout.Fabric.make ~polarity:Logic.Network.P_type ~rows:[] items
      in
      let hs = Fault.Crossing.hits f seg in
      let ats = List.map (fun (h : Fault.Crossing.hit) -> h.Fault.Crossing.at) hs in
      let bbox = f.Layout.Fabric.bbox in
      List.sort Stdlib.compare ats = ats
      && List.for_all (fun t -> t >= 0. && t <= 1.) ats
      && List.for_all
           (fun t ->
             let p = Geom.Segment.point_at seg t in
             p.Geom.Vec.x >= float_of_int bbox.Geom.Rect.x0 -. 1e-6
             && p.Geom.Vec.x <= float_of_int bbox.Geom.Rect.x1 +. 1e-6
             && p.Geom.Vec.y >= float_of_int bbox.Geom.Rect.y0 -. 1e-6
             && p.Geom.Vec.y <= float_of_int bbox.Geom.Rect.y1 +. 1e-6)
           ats)

let hits_prepared_agrees =
  QCheck.Test.make ~count:500
    ~name:"Crossing cached geometry: hits/edges match the uncached path"
    fabric_arb
    (fun (items, seg) ->
      let f =
        Layout.Fabric.make ~polarity:Logic.Network.N_type ~rows:[] items
      in
      let p = Fault.Crossing.prepare f in
      Fault.Crossing.hits_prepared p seg = Fault.Crossing.hits f seg
      && Fault.Crossing.edges_prepared p seg = Fault.Crossing.edges f seg)

(* [hits] is index-backed; rebuild its answer from the all-items clip so
   the spatial index stays bit-identical to the scan it replaced *)
let hits_match_naive_scan =
  QCheck.Test.make ~count:500
    ~name:"Crossing.hits equals the all-items naive scan" fabric_arb
    (fun (items, seg) ->
      let f =
        Layout.Fabric.make ~polarity:Logic.Network.N_type ~rows:[] items
      in
      let naive =
        Geom.Index.naive_segment
          (List.map
             (fun (p : Layout.Fabric.placed) ->
               (p.Layout.Fabric.rect, p.Layout.Fabric.elem))
             f.Layout.Fabric.items)
          seg
        |> List.map (fun (t0, t1, elem) ->
               { Fault.Crossing.at = (t0 +. t1) /. 2.; elem })
        |> List.sort (fun (a : Fault.Crossing.hit) b ->
               Stdlib.compare a.Fault.Crossing.at b.Fault.Crossing.at)
      in
      Fault.Crossing.hits f seg = naive)

let injector_domains_deterministic () =
  let cell = mk Layout.Cell.Vulnerable "NAND2" in
  let cfg = { Fault.Injector.default_config with Fault.Injector.trials = 200 } in
  let serial = Fault.Injector.run ~domains:1 cfg cell in
  List.iter
    (fun domains ->
      let o = Fault.Injector.run ~domains cfg cell in
      checkb
        (Printf.sprintf "identical outcome at %d domains" domains)
        true (o = serial))
    [ 2; 4 ];
  (* vulnerable NAND2 does fail, so the equality above compares nonzero
     tallies, not trivially empty ones *)
  checkb "campaign saw failures" true
    (serial.Fault.Injector.functional_failures > 0)

let injector_rejects_bad_config () =
  let cell = mk Layout.Cell.Immune_new "NAND2" in
  let raises cfg =
    match Fault.Injector.run cfg cell with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "trials = 0 rejected" true
    (raises { Fault.Injector.default_config with Fault.Injector.trials = 0 });
  checkb "negative trials rejected" true
    (raises { Fault.Injector.default_config with Fault.Injector.trials = -5 });
  checkb "negative tracks_per_trial rejected" true
    (raises
       { Fault.Injector.default_config with
         Fault.Injector.tracks_per_trial = -1 });
  (* tracks_per_trial = 0 is legal: it measures the nominal layout *)
  let o =
    Fault.Injector.run
      { Fault.Injector.default_config with
        Fault.Injector.trials = 5; tracks_per_trial = 0 }
      cell
  in
  check_int "zero tracks, zero strays" 0 o.Fault.Injector.stray_edges;
  check_int "zero tracks, zero failures" 0 o.Fault.Injector.functional_failures

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* A non-finite angle used to spray NaN tracks that cross nothing, so a
   vulnerable cell read as immune; the angle must lie in [0, 90]. *)
let injector_rejects_bad_angle () =
  let cell = mk Layout.Cell.Vulnerable "NAND2" in
  let cfg a =
    { Fault.Injector.default_config with
      Fault.Injector.trials = 50; max_angle_deg = a }
  in
  List.iter
    (fun a ->
      match Fault.Injector.run (cfg a) cell with
      | exception Invalid_argument m ->
        checkb (Printf.sprintf "%g: message names the field" a) true
          (contains m "max_angle_deg")
      | _ -> Alcotest.failf "max_angle_deg %g accepted" a)
    [ nan; infinity; neg_infinity; -5.; 90.5 ];
  List.iter
    (fun a ->
      check_int (Printf.sprintf "%g runs" a) 50
        (Fault.Injector.run (cfg a) cell).Fault.Injector.trials)
    [ 0.; 90. ]

(* The CLI's exit status for the same angles: 2, as for [--trials 0].
   The test binary runs in _build/default/test, and the CLI is a declared
   dune dep. *)
let cli_rejects_bad_angle () =
  let run args =
    let err = Filename.temp_file "cnfet_dk" ".err" in
    let status =
      Sys.command
        (Filename.quote_command "../bin/cnfet_dk.exe" args ~stdout:"/dev/null"
           ~stderr:err)
    in
    let msg = In_channel.with_open_bin err In_channel.input_all in
    Sys.remove err;
    (status, msg)
  in
  let fault angle =
    [ "fault"; "NAND2"; "--style"; "vulnerable"; "--trials"; "40";
      "--angle=" ^ angle ]
  in
  List.iter
    (fun args ->
      let status, msg = run args in
      check_int (String.concat " " args) 2 status;
      checkb "names max_angle_deg" true
        (contains msg "max_angle_deg"))
    (List.map fault [ "nan"; "inf"; "-inf"; "1e999"; "-5"; "90.5" ]
    @ [ [ "test-gen"; "--cell"; "AOI21"; "--trials"; "40"; "--angle"; "nan" ] ]);
  List.iter
    (fun angle ->
      let status, _ = run (fault angle) in
      checkb ("--angle=" ^ angle ^ " runs") true (status = 0 || status = 1))
    [ "0"; "90" ]

let injector_deterministic () =
  let cell = mk Layout.Cell.Vulnerable "NAND2" in
  let cfg = { Fault.Injector.default_config with Fault.Injector.trials = 100 } in
  let a = Fault.Injector.run cfg cell and b = Fault.Injector.run cfg cell in
  check_int "same seed, same failures" a.Fault.Injector.functional_failures
    b.Fault.Injector.functional_failures;
  let c =
    Fault.Injector.run { cfg with Fault.Injector.seed = 99 } cell
  in
  (* a different seed samples different strays (count may coincide) *)
  checkb "different seed runs" true (c.Fault.Injector.trials = 100)

let failure_rate_math () =
  let o =
    {
      Fault.Injector.trials = 200;
      functional_failures = 50;
      shorted_trials = 10;
      fight_trials = 10;
      float_trials = 0;
      stray_edges = 0;
    }
  in
  Alcotest.(check (float 1e-9)) "rate" 0.25 (Fault.Injector.failure_rate o);
  Alcotest.(check (float 1e-9)) "empty rate" 0.
    (Fault.Injector.failure_rate
       { o with Fault.Injector.trials = 0; functional_failures = 0 })

let verify_immunity_api () =
  let req = Cnfet.Synthesis.request (Logic.Cell_fun.nand 3) in
  let cell = Cnfet.Synthesis.immune_cell req in
  checkb "synthesized cell verifies" true
    (Cnfet.Synthesis.verify_immunity ~trials:150 cell = Ok ());
  let _, vuln, _ = Cnfet.Synthesis.reference_cells req in
  checkb "vulnerable reference rejected" true
    (match Cnfet.Synthesis.verify_immunity ~trials:150 vuln with
    | Error _ -> true
    | Ok () -> false)

let suite =
  [
    Alcotest.test_case "track through strip" `Quick track_through_strip;
    Alcotest.test_case "etch cuts track" `Quick etch_cuts_track;
    Alcotest.test_case "bare corridor shorts" `Quick bare_corridor_shorts;
    Alcotest.test_case "hits ordered" `Quick hits_ordered;
    Alcotest.test_case "track sampling bounds" `Quick track_sampling_bounds;
    Alcotest.test_case "vulnerable NAND2 fails (Fig 2b)" `Quick
      vulnerable_nand2_fails;
    Alcotest.test_case "immune NAND2 passes (Fig 2c/3b)" `Quick
      immune_styles_pass_nand2;
    Alcotest.test_case "catalog immune (both styles)" `Slow catalog_immune;
    Alcotest.test_case "injector deterministic" `Quick injector_deterministic;
    Alcotest.test_case "injector deterministic across domains" `Quick
      injector_domains_deterministic;
    Alcotest.test_case "injector rejects bad config" `Quick
      injector_rejects_bad_config;
    Alcotest.test_case "injector rejects out-of-range angles" `Quick
      injector_rejects_bad_angle;
    Alcotest.test_case "cli rejects out-of-range angles" `Quick
      cli_rejects_bad_angle;
    QCheck_alcotest.to_alcotest hits_sorted_and_in_bbox;
    QCheck_alcotest.to_alcotest hits_prepared_agrees;
    QCheck_alcotest.to_alcotest hits_match_naive_scan;
    Alcotest.test_case "failure rate math" `Quick failure_rate_math;
    Alcotest.test_case "verify_immunity API" `Quick verify_immunity_api;
  ]
