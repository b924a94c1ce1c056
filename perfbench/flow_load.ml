(* Workload flow_10k: ~10k-instance designs through Flow.Pipeline.run and
   a placement-level signoff (outline DRC, coupling extraction, die-level
   crossing queries).  One cycle is mult32 and rand10000s1, each under
   scheme S1 (rows) and S2 (shelves), in that order, with the same
   crossing queries.  Every run does the same work whatever its seed: the
   peak resident set follows the allocation history (OCaml 5.1 keeps
   freed heap), and a seeded order or seeded queries moved it by up to
   20 %.  Cycles repeat identically, and every repetition must write the
   same GDS bytes. *)

open Util

let ntracks = 200

type item = { netlist : Flow.Netlist_ir.t; scheme : [ `S1 | `S2 ] }

(* Set-up: generate the designs and build the library they need. *)
let setup () =
  let designs =
    List.map
      (fun spec -> ok_or_fail spec (Flow.Generate.of_spec spec))
      [ "mult32"; "rand10000s1" ]
  in
  let lib =
    ok_or_fail "library"
      (Stdcell.Library.cnfet ~drives:(Layers.drives_of designs) ())
  in
  let items =
    List.concat_map
      (fun netlist -> [ { netlist; scheme = `S1 }; { netlist; scheme = `S2 } ])
      designs
  in
  (lib, items)

let scheme_name = function `S1 -> "s1" | `S2 -> "s2"

(* Flow plus signoff of one design, with the peak resident set of that
   work alone, from a compacted heap.  The output checks run after the
   clock stops, on the first cycle only: later cycles must then write the
   same GDS bytes, which run.py compares by digest. *)
let run_item ~lib ~rng ~check it =
  let s = Layers.signoff () in
  Gc.compact ();
  reset_peak_rss ();
  let (result, report, tracks_hit), dt =
    time (fun () ->
        let spec = Flow.Pipeline.spec_of_netlist ~scheme:it.scheme ~lib it.netlist in
        let result, report = Flow.Pipeline.run spec in
        let r = ok_or_fail "flow" result in
        let hits =
          Layers.run_signoff s ~lib ~scheme:it.scheme ~rng ~ntracks
            r.Flow.Pipeline.placement
        in
        (r, report, hits))
  in
  let peak_kb = peak_rss_kb () in
  let check =
    if check then Layers.check_flow result ~violations:s.Layers.violations
    else Ok ()
  in
  Json.Obj
    [
      ("design", str it.netlist.Flow.Netlist_ir.design);
      ("scheme", str (scheme_name it.scheme));
      ("cells", int (List.length it.netlist.Flow.Netlist_ir.instances));
      ("s", num dt);
      ("peak_rss_kb", int peak_kb);
      ("flow_s", num report.Core.Pass.total_s);
      ("passes",
       Json.Obj (List.map (fun (n, w) -> (n, num w)) (Layers.pass_seconds report)));
      ("signoff", Layers.signoff_json s);
      ("track_hits", int tracks_hit);
      ("gds_bytes", int (String.length result.Flow.Pipeline.gds_bytes));
      ("gds_digest", str (Digest.to_hex (Digest.string result.Flow.Pipeline.gds_bytes)));
      ("ok", Json.Bool (Result.is_ok check));
      ("error", match check with Ok () -> Json.Null | Error m -> str m);
    ]

let run_cycle ?(before = ignore) ~lib ~check items =
  let rng = rng ~seed:0 ~salt:0x7ac in
  List.map
    (fun it ->
      before ();
      run_item ~lib ~rng ~check it)
    items

let main ~seconds ~trace =
  let lib, items = setup () in
  let cycle_json (designs, dt) =
    Json.Obj [ ("s", num dt); ("designs", Json.Arr designs) ]
  in
  let base = [ ("workload", str "flow_10k") ] in
  if not trace then begin
    (* the set-up is timed before every design, as in dse_campaign *)
    let setups = ref [] in
    let before () = setups := setup_time ~reps:1 setup :: !setups in
    let cycles =
      Util.cycles ~seconds:(float_of_int seconds) (fun k ->
          run_cycle ~before ~lib ~check:(k = 0) items)
    in
    emit
      (Json.Obj
         (base
         @ [
             ("cycles", Json.Arr (List.map cycle_json cycles));
             ("setup_s", nums (List.rev !setups));
           ]))
  end
  else begin
    (* design by design: untraced, then traced with telemetry recording, so
       that both run in the same moment of a host whose speed drifts; two
       generators give both the same queries *)
    let rng_u = rng ~seed:0 ~salt:0x7ac and rng_t = rng ~seed:0 ~salt:0x7ac in
    Telemetry.reset ();
    let runs =
      List.map
        (fun it ->
          let u = time (fun () -> run_item ~lib ~rng:rng_u ~check:true it) in
          Telemetry.enable ();
          let t = time (fun () -> run_item ~lib ~rng:rng_t ~check:false it) in
          Telemetry.disable ();
          (u, t))
        items
    in
    let cycle runs =
      (List.map fst runs, List.fold_left (fun acc (_, dt) -> acc +. dt) 0. runs)
    in
    (* the library build the set-up pays, timed on its own *)
    let library = Layers.tally () in
    let drives = Layers.drives_of (List.map (fun it -> it.netlist) items) in
    ignore
      (Layers.timed library ~n:1 (fun () -> Stdcell.Library.cnfet ~drives ()));
    emit
      (Json.Obj
         (base
         @ [
             ("cycles", Json.Arr [ cycle_json (cycle (List.map fst runs)) ]);
             ("traced", cycle_json (cycle (List.map snd runs)));
             ("library", Layers.tally_json library);
           ]))
  end
