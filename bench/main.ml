(* Experiment driver: `main.exe` runs every paper experiment;
   `main.exe <name>` runs one (the names [usage] lists). *)

let usage () =
  print_endline
    "usage: main.exe [table1|fig2|immunity|fig7|screening|cs1|cs2|summary|\
     ablation|yield|variation|sta|anneal|drc|ring|ripple|dse|scale|perf|all]"

let all_experiments =
  [
    ("table1", Experiments.table1);
    ("fig2", Experiments.fig2);
    ("immunity", Experiments.immunity_catalog);
    ("fig7", Experiments.fig7);
    ("screening", Experiments.fig7_screening_ablation);
    ("cs1", Experiments.cs1_area);
    ("cs2", Experiments.cs2);
    ("summary", Experiments.summary);
    ("ablation", Experiments.ablation_uniform);
    ("yield", Experiments.yield_exp);
    ("variation", Experiments.variation_exp);
    ("sta", Experiments.sta_exp);
    ("anneal", Experiments.anneal_exp);
    ("drc", Experiments.drc_exp);
    ("ring", Experiments.ring_exp);
    ("ripple", Experiments.ripple_exp);
    ("dse", Dse_bench.run);
    ("scale", Scale_bench.run);
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] ->
    List.iter (fun (_, f) -> f ()) all_experiments;
    Perf.run ()
  | [ _; "perf" ] -> Perf.run ()
  | [ _; name ] -> (
    match List.assoc_opt name all_experiments with
    | Some f -> f ()
    | None -> usage ())
  | _ -> usage ()
