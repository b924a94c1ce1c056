(* Workload dse_campaign: in-process Dse.Engine.run over a 48-point space
   (the default space on two of its four pitches).  One cycle is six
   campaigns, every cell once per style, vulnerable and immune
   alternating.  Every campaign uses the engine's default seed, so every
   run does the same work; the workload seed only orders the campaigns.
   Cycles repeat identically, so a run's figures do not depend on where
   its time budget fell, and every repetition of a campaign must return
   the same front. *)

open Util

(* The cells the library carries at every drive of the default axis. *)
let cells = [ "NAND2"; "AOI21"; "OAI21" ]

(* Half the default space keeps a cycle near 3 s on two cores, so a run
   holds enough cycles for a steady median. *)
let space = { Dse.Knobs.default_space with Dse.Knobs.pitches_nm = [| 4.; 6. |] }

let cycle_configs ~seed =
  let rng = rng ~seed ~salt:0xd5e in
  List.concat_map
    (fun cell ->
      List.map
        (fun style -> { (Dse.Engine.default ~cell) with Dse.Engine.style; space })
        [ Layout.Cell.Vulnerable; Layout.Cell.Immune_new ])
    (shuffle rng cells)

(* Set-up: the validated campaign configs, and a pre-flight of the
   libraries the engine will build, one per (pitch, drive) of the space,
   each checked to carry every cell.  Dse.Engine.run builds these again
   itself (it takes no library); the pre-flight keeps a cell missing at
   some drive out of the measured run and stands for that library cost. *)
let setup ~seed =
  Array.iter
    (fun pitch_nm ->
      Array.iter
        (fun drive ->
          let lib =
            ok_or_fail "library"
              (Stdcell.Library.cnfet ~rules:Pdk.Rules.default ~pitch_nm
                 ~drives:[ drive ] ())
          in
          List.iter
            (fun cell ->
              ignore (ok_or_fail "library" (Stdcell.Library.find lib ~name:cell ~drive)))
            cells)
        space.Dse.Knobs.drives)
    space.Dse.Knobs.pitches_nm;
  let configs = cycle_configs ~seed in
  List.iter (fun c -> ok_or_fail "config" (Dse.Engine.validate c)) configs;
  configs

(* A front is acceptable when it is non-empty and no member dominates
   another. *)
let front_ok (o : Dse.Engine.outcome) =
  let objs = List.map Dse.Engine.objectives o.Dse.Engine.front in
  objs <> []
  && List.for_all
       (fun a -> List.for_all (fun b -> not (Dse.Pareto.dominates a b)) objs)
       objs

let campaign ~domains config =
  let r, dt = time (fun () -> Dse.Engine.run ~domains config) in
  let o = ok_or_fail "dse campaign" r in
  (o, dt)

let campaign_json (config : Dse.Engine.config) (o : Dse.Engine.outcome) dt =
  let pruned =
    List.length (List.filter (fun e -> e.Dse.Engine.pruned) o.Dse.Engine.evaluated)
  in
  Json.Obj
    [
      ("cell", str config.Dse.Engine.cell);
      ("style", str (Service.Job.style_string config.Dse.Engine.style));
      ("s", num dt);
      ("points", int (List.length o.Dse.Engine.evaluated));
      ("pruned", int pruned);
      ("fine_grid", int o.Dse.Engine.fine_grid);
      ("trials", int o.Dse.Engine.trials_total);
      ("rounds", int o.Dse.Engine.rounds);
      ("front", int (List.length o.Dse.Engine.front));
      ("front_ok", Json.Bool (front_ok o));
      ("digest", str (digest_json (Service.Runner.dse_json o)));
    ]

let run_cycle ?(before = ignore) ~domains configs =
  List.map
    (fun c ->
      before ();
      let o, dt = campaign ~domains c in
      (c, o, dt))
    configs

(* --- traced run: the same campaigns split into their layers --- *)

(* Replays every layer call the engine made for one outcome, in the same
   order and on the same inputs: per (pitch, drive) the library build,
   the variation sampler and the characterization arcs (plus their bare
   transient runs); per (drive, scheme) the layout preparation; per point
   the misposition trial batches, on a pool of the same size with the
   pool's busy/idle gauges read after every batch. *)
let replay ~domains ~char ~layout ~mc ~pool_busy ~pool_total
    (config : Dse.Engine.config) (o : Dse.Engine.outcome) =
  let rules = Pdk.Rules.default and tech = Device.Cnfet.default_tech in
  let spec =
    { Device.Variation.default_spec with
      Device.Variation.samples = config.Dse.Engine.variation_samples;
      seed = config.Dse.Engine.seed }
  in
  let seen_char = Hashtbl.create 16 and mc_cells = Hashtbl.create 8 in
  let mc_chunk = max 1 ((config.Dse.Engine.batch + 7) / 8) in
  Parallel.Pool.with_pool ~domains (fun pool ->
      List.iter
        (fun (e : Dse.Engine.eval) ->
          let p = e.Dse.Engine.point in
          let pitch_nm = p.Dse.Knobs.pitch_nm and drive = p.Dse.Knobs.drive in
          if not (Hashtbl.mem seen_char (pitch_nm, drive)) then begin
            Hashtbl.add seen_char (pitch_nm, drive) ();
            let lib =
              Layers.timed char.Layers.library ~n:1 (fun () ->
                  ok_or_fail "library"
                    (Stdcell.Library.cnfet ~rules ~pitch_nm ~drives:[ drive ] ()))
            in
            let entry =
              ok_or_fail "library"
                (Stdcell.Library.find lib ~name:config.Dse.Engine.cell ~drive)
            in
            let width_lambda = entry.Stdcell.Library.width_lambda_base in
            let tubes =
              Stdcell.Library.tubes_for ~pitch_nm tech ~rules ~width_lambda
            in
            let width_nm = Pdk.Rules.nm_of_lambda rules width_lambda in
            let variation =
              Layers.timed char.Layers.variation ~n:1 (fun () ->
                  Device.Variation.prepare_sampler tech spec ~tubes ~width_nm)
            in
            Layers.characterize char ~variation ~lib entry
              ~loads:[ config.Dse.Engine.load ]
          end;
          let scheme = p.Dse.Knobs.scheme in
          let m =
            match Hashtbl.find_opt mc_cells (drive, scheme) with
            | Some m -> m
            | None ->
              let m =
                Layers.timed layout ~n:1 (fun () ->
                    let fn =
                      match Logic.Cell_fun.find_opt config.Dse.Engine.cell with
                      | Some fn -> fn
                      | None -> fail "unknown cell %s" config.Dse.Engine.cell
                    in
                    let cell =
                      ok_or_fail "layout"
                        (Layout.Cell.make ~rules ~fn ~style:config.Dse.Engine.style
                           ~scheme ~drive:(drive * Stdcell.Library.base_width_lambda))
                    in
                    ( Layout.Cell.prepare cell,
                      Fault.Crossing.prepare cell.Layout.Cell.pun,
                      Fault.Crossing.prepare cell.Layout.Cell.pdn ))
              in
              Hashtbl.add mc_cells (drive, scheme) m;
              m
          in
          let prep, pun, pdn = m in
          let point_seed =
            (Parallel.Split_rng.ints ~seed:config.Dse.Engine.seed
               ~stream:e.Dse.Engine.ordinal).(0)
          in
          let icfg =
            { Fault.Injector.default_config with
              Fault.Injector.trials = config.Dse.Engine.max_trials;
              seed = point_seed }
          in
          let rec batches n =
            if n < e.Dse.Engine.trials then begin
              let hi = min e.Dse.Engine.trials (n + config.Dse.Engine.batch) in
              Layers.pool_gauges ~busy:pool_busy ~total:pool_total (fun () ->
                  Layers.timed mc ~n:(hi - n) (fun () ->
                      ignore
                        (Parallel.Pool.map_reduce ~chunk:mc_chunk pool ~lo:n ~hi
                           ~map:(fun clo chi ->
                             for i = clo to chi - 1 do
                               ignore
                                 (Fault.Injector.run_trial icfg ~prep ~pun ~pdn i)
                             done;
                             0)
                           ~reduce:( + ) ~init:0)));
              batches hi
            end
          in
          batches 0)
        o.Dse.Engine.evaluated)

let main ~seed ~seconds ~domains ~trace =
  let configs = setup ~seed in
  let cycle_json (runs, dt) =
    Json.Obj
      [
        ("s", num dt);
        ("campaigns",
         Json.Arr (List.map (fun (c, o, dt) -> campaign_json c o dt) runs));
      ]
  in
  let base = [ ("workload", str "dse_campaign"); ("domains", int domains) ] in
  if not trace then begin
    (* the peak after the first cycle: the same work in every run, however
       many cycles the time allows.  The set-up is timed before every
       campaign, untimed by the cycle: set-up speed comes in phases of a
       few seconds on a shared host, and the samples must span the run. *)
    let peak_kb = ref 0 and setups = ref [] in
    let before () =
      setups := setup_time ~reps:3 (fun () -> setup ~seed) :: !setups
    in
    let cycles =
      Util.cycles ~seconds:(float_of_int seconds) (fun k ->
          let r = run_cycle ~before ~domains configs in
          if k = 0 then peak_kb := peak_rss_kb ();
          r)
    in
    emit
      (Json.Obj
         (base
         @ [
             ("cycles", Json.Arr (List.map cycle_json cycles));
             ("setup_s", nums (List.rev !setups));
             ("peak_rss_kb", int !peak_kb);
           ]))
  end
  else begin
    (* campaign by campaign: untraced, traced with telemetry recording,
       then the layer replay of the traced one, so that all three run in
       the same moment of a host whose speed drifts *)
    let char = Layers.char_layers () in
    let layout = Layers.tally () and mc = Layers.tally () in
    let pool_busy = ref 0. and pool_total = ref 0. in
    let rounds = ref [] in
    let runs =
      List.map
        (fun c ->
          let o, dt = campaign ~domains c in
          Telemetry.reset ();
          Telemetry.enable ();
          let o', dt' = campaign ~domains c in
          Telemetry.disable ();
          List.iter
            (fun (s : Telemetry.span) ->
              if s.Telemetry.name = "dse.round" then
                rounds := (Int64.to_float s.Telemetry.dur_ns /. 1e9) :: !rounds)
            (Telemetry.collect ()).Telemetry.spans;
          replay ~domains ~char ~layout ~mc ~pool_busy ~pool_total c o';
          ((c, o, dt), (c, o', dt')))
        configs
    in
    let cycle runs =
      (runs, List.fold_left (fun acc (_, _, dt) -> acc +. dt) 0. runs)
    in
    emit
      (Json.Obj
         (base
         @ [
             ("cycles", Json.Arr [ cycle_json (cycle (List.map fst runs)) ]);
             ("traced", cycle_json (cycle (List.map snd runs)));
             ("round_s", nums (List.rev !rounds));
             ("layers",
              Json.Obj
                [
                  ("char", Layers.char_json char);
                  ("layout", Layers.tally_json layout);
                  ("mc", Layers.tally_json mc);
                  ("pool_busy_s", num !pool_busy);
                  ("pool_total_s", num !pool_total);
                ]);
           ]))
  end
