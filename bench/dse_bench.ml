(* DSE campaign throughput: adaptive refinement + certainty pruning vs
   the exhaustive fine grid, on the immune-style default space (where
   yield is the deterministic closed-form metallic survival, so front
   equality is exact — see DESIGN.md §5i for the vulnerable-style
   caveat).  Asserts the ISSUE acceptance bar: the adaptive campaign
   evaluates at most half the fine-grid points and returns the exact
   same front.  Deterministic content, wall-clock timing. *)

let run () =
  let domains = Domain.recommended_domain_count () in
  let config =
    { (Dse.Engine.default ~cell:"NAND2") with
      Dse.Engine.style = Layout.Cell.Immune_new }
  in
  let campaign ~adaptive =
    let t0 = Unix.gettimeofday () in
    let o =
      Core.Diag.ok_exn
        (Dse.Engine.run ~domains { config with Dse.Engine.adaptive })
    in
    (o, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  Printf.printf
    "# dse campaign: immune NAND2, %d-point fine grid, %d domains\n"
    (Dse.Knobs.card config.Dse.Engine.space) domains;
  let report label (o : Dse.Engine.outcome) wall_ms =
    Printf.printf
      "%-10s  %4d/%d points  %6d trials  front=%d  rounds=%d  %7.0f ms\n%!"
      label
      (List.length o.Dse.Engine.evaluated)
      o.Dse.Engine.fine_grid o.Dse.Engine.trials_total
      (List.length o.Dse.Engine.front)
      o.Dse.Engine.rounds wall_ms
  in
  let adaptive, adaptive_ms = campaign ~adaptive:true in
  let exhaustive, exhaustive_ms = campaign ~adaptive:false in
  report "adaptive" adaptive adaptive_ms;
  report "exhaustive" exhaustive exhaustive_ms;
  (* the whole point of the refinement machinery: same answer, less work *)
  let key (e : Dse.Engine.eval) =
    (e.Dse.Engine.ordinal, Dse.Engine.objectives e)
  in
  let front o = List.sort compare (List.map key o.Dse.Engine.front) in
  if front adaptive <> front exhaustive then
    failwith "dse_bench: adaptive front differs from the exhaustive front";
  let evaluated = List.length adaptive.Dse.Engine.evaluated in
  let fine = adaptive.Dse.Engine.fine_grid in
  if 2 * evaluated > fine then
    failwith
      (Printf.sprintf
         "dse_bench: adaptive evaluated %d of %d points (> 50%%)" evaluated
         fine);
  let entry label (o : Dse.Engine.outcome) wall_ms =
    Bench_json.entry ~name:("dse_" ^ label) ~wall_ms
      ~throughput:(float_of_int (List.length o.Dse.Engine.evaluated)
                   /. (wall_ms /. 1000.))
      ~extras:
        [
          ("points", float_of_int (List.length o.Dse.Engine.evaluated));
          ("fine_grid", float_of_int o.Dse.Engine.fine_grid);
          ("trials", float_of_int o.Dse.Engine.trials_total);
          ("front", float_of_int (List.length o.Dse.Engine.front));
          ("rounds", float_of_int o.Dse.Engine.rounds);
        ]
      ()
  in
  let speedup =
    Bench_json.entry ~name:"dse_adaptive_speedup" ~wall_ms:adaptive_ms
      ~throughput:(exhaustive_ms /. adaptive_ms)
      ~extras:
        [
          ("eval_fraction",
           float_of_int (List.length adaptive.Dse.Engine.evaluated)
           /. float_of_int adaptive.Dse.Engine.fine_grid);
          ("trials_saved",
           float_of_int
             (exhaustive.Dse.Engine.trials_total
             - adaptive.Dse.Engine.trials_total));
        ]
      ()
  in
  Printf.printf "front equal; adaptive evaluated %d/%d points (%.1f%%)\n%!"
    evaluated fine
    (100. *. float_of_int evaluated /. float_of_int fine);
  Bench_json.write ~bench:"dse"
    [
      entry "adaptive" adaptive adaptive_ms;
      entry "exhaustive" exhaustive exhaustive_ms;
      speedup;
    ]
