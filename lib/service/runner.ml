let ( let* ) = Result.bind

let rules = Pdk.Rules.default

(* Every exception a kit library may raise becomes a diagnostic naming
   the job. *)
let guard job f =
  let fail m =
    Core.Diag.fail ~stage:"service.run" ~context:[ ("job", Job.describe job) ] m
  in
  match f () with
  | r -> r
  | exception Core.Diag.Failure d -> Error d
  | exception (Invalid_argument m | Stdlib.Failure m) -> fail m
  | exception e -> fail ("unexpected exception: " ^ Printexc.to_string e)

let make_cell ~name ~style ~scheme ~drive =
  let* fn = Layout.Cell.lookup ~name ~drive in
  Layout.Cell.make ~rules ~fn ~style ~scheme ~drive

let fault ~pool (j : Job.fault_job) =
  guard (Job.Fault j) @@ fun () ->
  let* cell =
    make_cell ~name:j.Job.cell ~style:j.Job.style ~scheme:Layout.Cell.Scheme1
      ~drive:j.Job.drive
  in
  Ok (cell, Fault.Injector.run ~pool (Job.fault_config j) cell)

let fault_json ((cell : Layout.Cell.t), (o : Fault.Injector.outcome)) =
  Json.Obj
    [
      ("cell", Json.Str cell.Layout.Cell.name);
      ("style", Json.Str (Layout.Cell.style_string cell.Layout.Cell.style));
      ("trials", Json.int o.Fault.Injector.trials);
      ("functional_failures", Json.int o.Fault.Injector.functional_failures);
      ("shorted_trials", Json.int o.Fault.Injector.shorted_trials);
      ("fight_trials", Json.int o.Fault.Injector.fight_trials);
      ("float_trials", Json.int o.Fault.Injector.float_trials);
      ("stray_edges", Json.int o.Fault.Injector.stray_edges);
      ("failure_rate", Json.Num (Fault.Injector.failure_rate o));
    ]

let testgen ~pool (j : Job.testgen_job) =
  guard (Job.Testgen j) @@ fun () ->
  let* cell =
    make_cell ~name:j.Job.tg_cell ~style:j.Job.tg_style
      ~scheme:(Job.cell_scheme j.Job.tg_scheme) ~drive:j.Job.tg_drive
  in
  Ok (Testgen.Campaign.run ~pool (Job.testgen_config j) cell)

let testgen_json (r : Testgen.Campaign.result) =
  let d = r.Testgen.Campaign.dictionary in
  let v = r.Testgen.Campaign.vectors in
  let class_json (c : Testgen.Dictionary.fault_class) =
    Json.Obj
      [
        ("count", Json.int c.Testgen.Dictionary.count);
        ("first_trial", Json.int c.Testgen.Dictionary.first_trial);
        ("rows",
         Json.Arr
           (List.map
              (fun (row, drive) ->
                Json.Obj
                  [
                    ("row", Json.int row);
                    ("drive",
                     Json.Str (Logic.Switch_graph.drive_string drive));
                  ])
              c.Testgen.Dictionary.signature));
      ]
  in
  Json.Obj
    [
      ("cell", Json.Str r.Testgen.Campaign.cell);
      ("style", Json.Str (Layout.Cell.style_string r.Testgen.Campaign.style));
      ("scheme",
       Json.Str (Layout.Cell.scheme_string r.Testgen.Campaign.scheme));
      ("trials", Json.int d.Testgen.Dictionary.trials);
      ("failing", Json.int d.Testgen.Dictionary.failing);
      ("classes", Json.Arr (List.map class_json d.Testgen.Dictionary.classes));
      ("vectors",
       Json.Obj
         [
           ("rows", Json.Arr (List.map Json.int v.Testgen.Vectors.vectors));
           ("covered", Json.int v.Testgen.Vectors.covered);
           ("classes", Json.int v.Testgen.Vectors.classes);
           ("optimal",
            match v.Testgen.Vectors.optimal with
            | Some n -> Json.int n
            | None -> Json.Null);
         ]);
      ("spare_curve",
       Json.Arr
         (List.map
            (fun (p : Testgen.Repair.spare_point) ->
              Json.Obj
                [
                  ("spares", Json.int p.Testgen.Repair.spares);
                  ("repaired", Json.int p.Testgen.Repair.repaired);
                  ("yield", Json.Num p.Testgen.Repair.yield);
                ])
            r.Testgen.Campaign.spare_curve));
      ("redundancy",
       Json.Arr
         (List.map
            (fun (p : Testgen.Repair.redundancy_point) ->
              Json.Obj
                [
                  ("tubes", Json.int p.Testgen.Repair.tubes);
                  ("overhead", Json.Num p.Testgen.Repair.overhead);
                  ("yield", Json.Num p.Testgen.Repair.yield);
                ])
            r.Testgen.Campaign.redundancy));
    ]

let arc_json (a : Stdcell.Characterize.arc) =
  Json.Obj
    [
      ("input", Json.Str a.Stdcell.Characterize.input);
      ("rise_ps", Json.Num (a.Stdcell.Characterize.rise_delay_s *. 1e12));
      ("fall_ps", Json.Num (a.Stdcell.Characterize.fall_delay_s *. 1e12));
      ("avg_ps", Json.Num (a.Stdcell.Characterize.avg_delay_s *. 1e12));
      ("energy_fj",
       Json.Num (a.Stdcell.Characterize.energy_per_cycle_j *. 1e15));
    ]

let characterize ~pool (j : Job.characterize_job) =
  guard (Job.Characterize j) @@ fun () ->
  let* lib = Stdcell.Library.cnfet ~drives:[ j.Job.char_drive ] () in
  let* entry =
    Stdcell.Library.find lib ~name:j.Job.char_cell ~drive:j.Job.char_drive
  in
  let* points =
    Stdcell.Characterize.sweep ~pool ~lib entry ~loads:j.Job.loads
  in
  Ok (entry, points)

let characterize_json ((entry : Stdcell.Library.entry), points) =
  Json.Obj
    [
      ("cell", Json.Str entry.Stdcell.Library.cell_name);
      ("drive", Json.int entry.Stdcell.Library.drive);
      ("points",
       Json.Arr
         (List.map
            (fun (load, arcs) ->
              Json.Obj
                [
                  ("load", Json.int load);
                  ("worst_delay_ps",
                   Json.Num (Stdcell.Characterize.worst_delay arcs *. 1e12));
                  ("arcs", Json.Arr (List.map arc_json arcs));
                ])
            points));
    ]

let dse ~pool (j : Job.dse_job) =
  guard (Job.Dse j) @@ fun () -> Dse.Engine.run ~pool (Job.dse_config j)

let dse_json (o : Dse.Engine.outcome) =
  let eval_json (e : Dse.Engine.eval) =
    let p = e.Dse.Engine.point in
    Json.Obj
      [
        ( "knobs",
          Json.Obj
            [
              ("pitch_nm", Json.Num p.Dse.Knobs.pitch_nm);
              ("p_metallic", Json.Num p.Dse.Knobs.p_metallic);
              ("removal_eff", Json.Num p.Dse.Knobs.removal_eff);
              ("drive", Json.int p.Dse.Knobs.drive);
              ("scheme",
               Json.Str (Layout.Cell.scheme_string p.Dse.Knobs.scheme));
              ("tubes", Json.int e.Dse.Engine.tubes);
            ] );
        ("delay_ps", Json.Num e.Dse.Engine.delay_ps);
        ("energy_fj", Json.Num e.Dse.Engine.energy_fj);
        ("yield", Json.Num e.Dse.Engine.yield_);
        ("yield_lo", Json.Num e.Dse.Engine.yield_lo);
        ("yield_hi", Json.Num e.Dse.Engine.yield_hi);
        ("trials", Json.int e.Dse.Engine.trials);
        ("area_lambda2", Json.int e.Dse.Engine.area_lambda2);
      ]
  in
  let pruned =
    List.length
      (List.filter (fun e -> e.Dse.Engine.pruned) o.Dse.Engine.evaluated)
  in
  Json.Obj
    [
      ("cell", Json.Str o.Dse.Engine.cell);
      ("style", Json.Str (Layout.Cell.style_string o.Dse.Engine.style));
      ("adaptive", Json.Bool o.Dse.Engine.adaptive);
      ("fine_grid", Json.int o.Dse.Engine.fine_grid);
      ("evaluated", Json.int (List.length o.Dse.Engine.evaluated));
      ("pruned", Json.int pruned);
      ("rounds", Json.int o.Dse.Engine.rounds);
      ("trials", Json.int o.Dse.Engine.trials_total);
      ("front", Json.Arr (List.map eval_json o.Dse.Engine.front));
    ]

type flow_run = {
  outcome : (Flow.Pipeline.result_t, Core.Diag.t) result;
  report : Core.Pass.report;
}

let resolve_source = function
  | Job.Full_adder -> Ok (Flow.Full_adder.netlist ())
  | Job.Ripple bits -> Flow.Ripple_adder.netlist ~bits
  | Job.Netlist_text text -> Flow.Netlist_ir.of_string text
  | Job.Generated spec -> Flow.Generate.of_spec spec

let flow ?pass_cache ?trace (j : Job.flow_job) =
  guard (Job.Flow j) @@ fun () ->
  let* netlist = resolve_source j.Job.source in
  let drives =
    List.sort_uniq Stdlib.compare
      (List.map
         (fun (i : Flow.Netlist_ir.instance) -> i.Flow.Netlist_ir.drive)
         netlist.Flow.Netlist_ir.instances)
  in
  let* lib = Stdcell.Library.cnfet ~drives () in
  let spec =
    Flow.Pipeline.spec_of_netlist ~scheme:j.Job.scheme ~aspect:j.Job.aspect
      ~lib netlist
  in
  let outcome, report = Flow.Pipeline.run ?cache:pass_cache ?trace spec in
  Ok { outcome; report }

(* Sizes and metrics, never timings — see the mli determinism note. *)
let flow_json (r : Flow.Pipeline.result_t) =
  let netlist = r.Flow.Pipeline.netlist and p = r.Flow.Pipeline.placement in
  Json.Obj
    [
      ("design", Json.Str netlist.Flow.Netlist_ir.design);
      ("instances", Json.int (List.length netlist.Flow.Netlist_ir.instances));
      ("unique_cells", Json.int (List.length r.Flow.Pipeline.cells));
      ("die_width", Json.int p.Flow.Placer.die_width);
      ("die_height", Json.int p.Flow.Placer.die_height);
      ("utilization", Json.Num (Flow.Placer.utilization p));
      ("gds_bytes", Json.int (String.length r.Flow.Pipeline.gds_bytes));
      ("spec_digest", Json.Str (Lazy.force r.Flow.Pipeline.spec_digest));
    ]

let run ~pool ~pass_cache = function
  | Job.Flow j ->
    let* f = flow ~pass_cache j in
    Result.map flow_json f.outcome
  | Job.Fault j -> Result.map fault_json (fault ~pool j)
  | Job.Characterize j -> Result.map characterize_json (characterize ~pool j)
  | Job.Testgen j -> Result.map testgen_json (testgen ~pool j)
  | Job.Dse j -> Result.map dse_json (dse ~pool j)
