(* cnfet_dk: command-line front end of the CNFET design kit.

   Subcommands:
     layout        generate an immune cell layout (ascii and/or GDS)
     fault         run the misposition fault-injection campaign on a cell
     test-gen      fault dictionary, distinguishing vectors, repair curves
     dse           processing/circuit co-optimization Pareto campaign
     table1        print the Table-1 area comparison
     characterize  simulate a cell's timing/energy arcs
     flow          place a netlist file under a layout scheme, stream GDSII
     fo4           FO4 inverter-chain comparison at a given tube count *)

open Cmdliner

let rules = Pdk.Rules.default
let ( let* ) = Result.bind

let cell_arg =
  let doc = "Cell name: INV, NAND2, NAND3, NOR2, NOR3, AOI21, AOI22, OAI21, \
             OAI22, AOI31." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CELL" ~doc)

let cell_opt_arg doc =
  Arg.(required & opt (some string) None & info [ "cell" ] ~docv:"CELL" ~doc)

let drive_arg ?(docv = "LAMBDA") doc =
  Arg.(value & opt int 4 & info [ "drive"; "d" ] ~docv ~doc)

let width_arg = drive_arg "Base transistor width in lambda."

(* the cells the library builds above 1X, as its own predicate says *)
let sized_cells =
  Logic.Cell_fun.all
  |> List.filter (fun (fn : Logic.Cell_fun.t) ->
         Result.is_ok (Stdcell.Library.offers ~name:fn.name ~drive:2))
  |> List.map (fun (fn : Logic.Cell_fun.t) -> fn.name)
  |> String.concat ", "

let style_arg =
  let doc = "Layout style: new, old, vulnerable or cmos." in
  Arg.(value & opt (enum Layout.Cell.styles) Layout.Cell.Immune_new
       & info [ "style" ] ~docv:"STYLE" ~doc)

(* test-gen and dse: an immune cell yields an empty dictionary and a
   trivial yield, so the style under test defaults to vulnerable *)
let layout_style_arg =
  Arg.(value
       & opt (enum Layout.Cell.styles) Layout.Cell.Vulnerable
       & info [ "layout" ] ~docv:"STYLE"
           ~doc:"Layout style under test: new, old, vulnerable or cmos.")

let scheme_arg =
  let schemes = [ ("1", Layout.Cell.Scheme1); ("2", Layout.Cell.Scheme2) ] in
  let doc = "Standard-cell scheme: 1 (stacked) or 2 (side by side)." in
  Arg.(value & opt (enum schemes) Layout.Cell.Scheme1
       & info [ "scheme" ] ~docv:"SCHEME" ~doc)

(* the scheme values of test-gen and dse jobs, spelled as jobs spell them *)
let scheme_tags =
  List.map (fun s -> (Service.Job.scheme_string s, s)) [ `S1; `S2 ]

let trials_arg =
  Arg.(value & opt int 1000 & info [ "trials" ] ~docv:"N"
         ~doc:"Monte-Carlo trials.")

let angle_arg =
  Arg.(value & opt float 8. & info [ "angle" ] ~docv:"DEG"
         ~doc:"Maximum misposition angle, degrees.")

let domains_arg doc =
  Arg.(value & opt int 1 & info [ "domains"; "j" ] ~docv:"N" ~doc)

let gds_arg =
  let doc = "Write the layout to this GDSII file." in
  Arg.(value & opt (some string) None & info [ "gds" ] ~docv:"FILE" ~doc)

(* Structured errors from the libraries surface as [Diag] values; the CLI
   prints them and maps them to exit code 2. *)
let diag_exit d =
  prerr_endline ("cnfet_dk: " ^ Core.Diag.to_string d);
  2

let or_diag_exit f =
  try f () with Core.Diag.Failure d -> diag_exit d

(* Output files are checked before any work runs, so a missing or
   unwritable directory costs nothing and prints nothing; a write that
   fails anyway raises the same Diag, never a bare Sys_error. *)
let cannot_write path reason =
  Core.Diag.error ~stage:"output" ~context:[ ("path", path) ]
    ("cannot write " ^ path ^ ": " ^ reason)

let check_outputs paths =
  List.fold_left
    (fun acc path ->
      let* () = acc in
      match Unix.access (Filename.dirname path) [ Unix.W_OK ] with
      | () when Sys.file_exists path && Sys.is_directory path ->
        Error (cannot_write path "Is a directory")
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
        Error (cannot_write path (Unix.error_message e)))
    (Ok ())
    (List.filter_map Fun.id paths)

let write_output path write =
  try Out_channel.with_open_bin path write
  with Sys_error m -> raise (Core.Diag.Failure (cannot_write path m))

(* Telemetry flags shared by the compute subcommands and serve:
   --telemetry prints the merged metrics/span summary after the run,
   --trace-out writes a Chrome trace_event file (about://tracing,
   Perfetto).  Either flag switches recording on; without both,
   telemetry stays a no-op. *)

let telemetry_args =
  let telemetry =
    let doc =
      "Record telemetry (spans + metrics) and print the summary after the \
       run, as $(docv) (text or json).  Plain --telemetry means text."
    in
    Arg.(value
         & opt ~vopt:(Some `Text)
             (some (enum [ ("text", `Text); ("json", `Json) ]))
             None
         & info [ "telemetry" ] ~docv:"FORMAT" ~doc)
  in
  let trace_out =
    let doc =
      "Write a Chrome trace_event JSON of the run to $(docv) (open in \
       about://tracing or Perfetto).  Implies telemetry recording."
    in
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  Term.(const (fun t o -> (t, o)) $ telemetry $ trace_out)

let telemetry_start = function
  | None, None -> ()
  | _ ->
    Telemetry.reset ();
    Telemetry.enable ()

(* the summary and the trace note go to [oc]: stdout, or stderr where
   stdout carries the NDJSON stream *)
let telemetry_finish oc = function
  | None, None -> ()
  | telemetry, trace_out -> (
    Telemetry.disable ();
    let snap = Telemetry.collect () in
    (match trace_out with
    | Some path ->
      write_output path (fun t ->
          output_string t (Telemetry.chrome_trace snap);
          output_char t '\n');
      Printf.fprintf oc "wrote trace %s\n" path
    | None -> ());
    match telemetry with
    | Some `Text -> output_string oc (Telemetry.summary_to_text snap)
    | Some `Json -> Printf.fprintf oc "%s\n" (Telemetry.summary_to_json snap)
    | None -> ())

(* The compute subcommands are clients of the job runner.  [job] passes
   the service's admission check (a rejected flag or an unknown cell
   exits 2 with the same diagnostic a served submission gets) and the
   [outputs] (and the trace file) the output check, [run] executes it on
   a pool of [domains] inside the telemetry window, and [print] renders
   the typed result and returns the exit code. *)
let run_job ?(domains = 1) ?(outputs = []) tel job run print =
  match
    let* () = Service.Job.validate job in
    check_outputs (snd tel :: outputs)
  with
  | Error d -> diag_exit d
  | Ok () -> (
    telemetry_start tel;
    match Parallel.Pool.with_pool ~domains (fun pool -> run ~pool) with
    | Error d -> diag_exit d
    | Ok r ->
      or_diag_exit @@ fun () ->
      let code = print r in
      telemetry_finish stdout tel;
      code)

(* layout *)

let layout_cmd =
  let run name drive style scheme gds =
    match
      let* fn = Layout.Cell.lookup ~name ~drive in
      let* () = check_outputs [ gds ] in
      Layout.Cell.make ~rules ~fn ~style ~scheme ~drive
    with
    | Error d -> diag_exit d
    | Ok cell ->
      print_endline (Layout.Render.cell cell);
      Printf.printf
        "\ncell %s: %dx%d lambda, active %d lambda^2, footprint %d lambda^2\n"
        cell.Layout.Cell.name cell.Layout.Cell.width cell.Layout.Cell.height
        (Layout.Cell.active_area cell)
        (Layout.Cell.footprint_area cell);
      (match Layout.Cell.check_function cell with
      | Ok () -> print_endline "switch-level function: correct"
      | Error e -> Printf.printf "switch-level function: %s\n" e);
      or_diag_exit @@ fun () ->
      (match gds with
      | None -> ()
      | Some path ->
        let lib =
          Gds.Stream.library ~rules ~name:"cnfet_dk"
            [ (cell.Layout.Cell.name, Layout.Cell.layers cell) ]
        in
        write_output path (fun oc -> output_string oc (Gds.Stream.to_bytes lib));
        Printf.printf "wrote %s\n" path);
      0
  in
  let doc = "Generate a standard-cell layout." in
  Cmd.v (Cmd.info "layout" ~doc)
    Term.(const run $ cell_arg $ width_arg $ style_arg $ scheme_arg $ gds_arg)

(* fault *)

let fault_cmd =
  let domains =
    domains_arg
      "Worker domains for the Monte-Carlo campaign (1 = serial). The \
       outcome is bit-identical for every N: trials seed their RNG from \
       (seed, trial index), not from the worker."
  in
  let run name drive style trials angle domains tel =
    (* fault has no --tracks or --seed: the job's defaults *)
    let job =
      { Service.Job.cell = name; drive; style; trials; tracks_per_trial = 3;
        max_angle_deg = angle; seed = 42 }
    in
    run_job ~domains tel (Service.Job.Fault job) (Service.Runner.fault job)
    @@ fun (cell, o) ->
    Printf.printf
      "%s: %d/%d functional failures (%.2f%%), %d shorted (%d fight, %d \
       float), %d stray CNTs\n"
      cell.Layout.Cell.name o.Fault.Injector.functional_failures
      o.Fault.Injector.trials
      (100. *. Fault.Injector.failure_rate o)
      o.Fault.Injector.shorted_trials o.Fault.Injector.fight_trials
      o.Fault.Injector.float_trials o.Fault.Injector.stray_edges;
    (match Fault.Injector.horizontal_sweep cell with
    | Ok () -> print_endline "horizontal sweep: immune in every corridor"
    | Error ys ->
      Printf.printf "horizontal sweep: FAILS in %d corridors\n"
        (List.length ys));
    if o.Fault.Injector.functional_failures = 0 then 0 else 1
  in
  let doc = "Inject mispositioned CNTs and check functional immunity." in
  Cmd.v (Cmd.info "fault" ~doc)
    Term.(const run $ cell_arg $ width_arg $ style_arg $ trials_arg
          $ angle_arg $ domains $ telemetry_args)

(* test-gen *)

let test_gen_cmd =
  let scheme =
    (* here --style is the paper's scheme axis (s1 stacked, s2 side by
       side); the layout style is --layout *)
    Arg.(value
         & opt (enum scheme_tags) `S1
         & info [ "style" ] ~docv:"SCHEME"
             ~doc:"Standard-cell scheme: s1 (stacked) or s2 (side by side).")
  in
  let tracks =
    Arg.(value & opt int 3 & info [ "tracks" ] ~docv:"N"
           ~doc:"Stray CNT tracks sprayed per trial.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Campaign RNG seed.")
  in
  let spares =
    Arg.(value & opt int 2 & info [ "spares" ] ~docv:"N"
           ~doc:"Spare-track budget of the repair curve.")
  in
  let p_good =
    Arg.(value & opt float 0.9 & info [ "p-good" ] ~docv:"P"
           ~doc:"Per-tube survival probability for the N-of-M curve.")
  in
  let extra_tubes =
    Arg.(value & opt int 4 & info [ "extra-tubes" ] ~docv:"N"
           ~doc:"Redundancy curve extent beyond the required N tubes.")
  in
  let domains =
    domains_arg "Worker domains; the result is bit-identical for every N."
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the result as a JSON document (the same shape the \
                 job service returns for testgen jobs).")
  in
  let run name drive scheme style trials tracks angle seed spares p_good
      extra_tubes domains json tel =
    let job =
      { Service.Job.tg_cell = name; tg_drive = drive; tg_style = style;
        tg_scheme = scheme; tg_trials = trials; tg_tracks_per_trial = tracks;
        tg_max_angle_deg = angle; tg_seed = seed; tg_max_spares = spares;
        tg_p_good = p_good; tg_max_extra_tubes = extra_tubes }
    in
    run_job ~domains tel (Service.Job.Testgen job) (Service.Runner.testgen job)
    @@ fun r ->
    if json then
      print_endline (Core.Json.to_string (Service.Runner.testgen_json r))
    else print_string (Testgen.Report.to_text r);
    0
  in
  let doc =
    "Diagnose a misposition campaign: fault dictionary, minimal \
     distinguishing vector set, spare-track and N-of-M repair curves."
  in
  Cmd.v (Cmd.info "test-gen" ~doc)
    Term.(const run
          $ cell_opt_arg "Cell name: INV, NAND2, NOR2, AOI21, OAI21, ..."
          $ width_arg $ scheme $ layout_style_arg
          $ trials_arg $ tracks $ angle_arg $ seed $ spares $ p_good
          $ extra_tubes $ domains $ json $ telemetry_args)

(* dse *)

let dse_cmd =
  let pitches =
    Arg.(value & opt (list float) [ 4.; 5.; 6.; 8. ]
         & info [ "pitches" ] ~docv:"NM,..."
             ~doc:"Grown CNT pitch axis, nm (comma-separated).")
  in
  let p_metallic =
    Arg.(value & opt (list float) [ 0.01; 0.1; 0.33 ]
         & info [ "p-metallic" ] ~docv:"P,..."
             ~doc:"Metallic-CNT fraction axis (comma-separated).")
  in
  let removal =
    Arg.(value & opt (list float) [ 0.95; 0.999 ]
         & info [ "removal" ] ~docv:"EFF,..."
             ~doc:"Metallic-removal efficiency axis (comma-separated).")
  in
  let drives =
    Arg.(value & opt (list int) [ 1; 2 ]
         & info [ "drives" ] ~docv:"K,..."
             ~doc:"Drive-strength axis, INV1X multiples (comma-separated).")
  in
  let schemes =
    Arg.(value
         & opt (list (enum scheme_tags)) [ `S1; `S2 ]
         & info [ "schemes" ] ~docv:"S,..."
             ~doc:"Layout-scheme axis: s1 (stacked), s2 (side by side).")
  in
  let load =
    Arg.(value & opt int 2 & info [ "load" ] ~docv:"N"
           ~doc:"INV1X loads on every characterization arc.")
  in
  let trials =
    Arg.(value & opt int 400 & info [ "trials" ] ~docv:"N"
           ~doc:"Misposition Monte-Carlo budget per grid point.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Campaign RNG seed (points derive theirs from it).")
  in
  let exhaustive =
    Arg.(value & flag & info [ "exhaustive" ]
           ~doc:"Evaluate the full fine grid instead of refining \
                 adaptively.  The front is identical either way; only \
                 the evaluation count differs.")
  in
  let domains =
    domains_arg "Worker domains; the front is bit-identical for every N."
  in
  let report =
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "report" ] ~docv:"FORMAT"
             ~doc:"Report format: text or json (the same document the \
                   job service returns for dse jobs).")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Also export the Pareto front as CSV to $(docv).")
  in
  let run name layout pitches p_metallic removal drives schemes load trials
      seed exhaustive domains report csv tel =
    let job =
      { Service.Job.dse_cell = name; dse_style = layout;
        dse_pitches = pitches; dse_p_metallic = p_metallic;
        dse_removal = removal; dse_drives = drives; dse_schemes = schemes;
        dse_load = load; dse_max_trials = trials; dse_seed = seed;
        dse_adaptive = not exhaustive }
    in
    run_job ~domains ~outputs:[ csv ] tel (Service.Job.Dse job)
      (Service.Runner.dse job)
    @@ fun o ->
    (match report with
    | `Text -> print_string (Dse.Report.text o)
    | `Json -> print_endline (Core.Json.to_string (Service.Runner.dse_json o)));
    (match csv with
    | Some path ->
      write_output path (fun oc -> output_string oc (Dse.Report.csv o));
      Printf.eprintf "wrote front %s\n%!" path
    | None -> ());
    0
  in
  let doc =
    "Design-space exploration: sweep processing knobs (CNT pitch, metallic \
     fraction, removal efficiency) against circuit knobs (drive sizing, \
     layout scheme) and report the delay/energy/yield Pareto front.  \
     Adaptive refinement and early-stopped yield trials return the same \
     front as the exhaustive fine-grid sweep."
  in
  Cmd.v (Cmd.info "dse" ~doc)
    Term.(const run
          $ cell_opt_arg
              ("Cell name.  Every drive of --drives must exist: above 1X \
                the library has only " ^ sized_cells ^ ".")
          $ layout_style_arg $ pitches $ p_metallic
          $ removal $ drives $ schemes $ load $ trials $ seed $ exhaustive
          $ domains $ report $ csv $ telemetry_args)

(* table1 *)

let table1_cmd =
  let run () =
    or_diag_exit @@ fun () ->
    List.iter
      (fun (name, paper_row) ->
        let fn = Logic.Cell_fun.find name in
        Printf.printf "%-7s" name;
        List.iter
          (fun (size, paper) ->
            let r = Cnfet.Compare.row ~rules fn ~size in
            Printf.printf "  %2dl: %5.2f%% (paper %5.2f%%)" size
              r.Cnfet.Compare.saving_pct paper)
          paper_row;
        print_newline ())
      Cnfet.Compare.paper_table1;
    0
  in
  let doc = "Area difference between the new and the old immune layouts." in
  Cmd.v (Cmd.info "table1" ~doc) Term.(const run $ const ())

(* characterize *)

let characterize_cmd =
  let load =
    Arg.(value & opt int 4 & info [ "load" ] ~docv:"N"
           ~doc:"Output load in INV1X gates.")
  in
  let cmos_flag =
    Arg.(value & flag & info [ "cmos" ] ~doc:"Use the CMOS reference library.")
  in
  let print ((entry : Stdcell.Library.entry), points) =
    List.iter
      (fun (load, arcs) ->
        Printf.printf "%s (load %d x INV1X):\n" entry.Stdcell.Library.cell_name
          load;
        List.iter
          (fun (a : Stdcell.Characterize.arc) ->
            Printf.printf
              "  pin %-3s rise %6.1f ps, fall %6.1f ps, energy %6.2f \
               fJ/cycle\n"
              a.Stdcell.Characterize.input
              (a.Stdcell.Characterize.rise_delay_s *. 1e12)
              (a.Stdcell.Characterize.fall_delay_s *. 1e12)
              (a.Stdcell.Characterize.energy_per_cycle_j *. 1e15))
          arcs)
      points;
    0
  in
  let run name drive load use_cmos =
    if use_cmos then
      (* the CMOS reference library has no job kind: a direct call *)
      match
        let* lib = Stdcell.Library.cmos ~drives:[ drive ] () in
        let* entry = Stdcell.Library.find lib ~name ~drive in
        let* arcs = Stdcell.Characterize.all_arcs ~lib entry ~load_inv1x:load in
        Ok (entry, [ (load, arcs) ])
      with
      | Error d -> diag_exit d
      | Ok r -> print r
    else
      let job =
        { Service.Job.char_cell = name; char_drive = drive; loads = [ load ] }
      in
      run_job (None, None) (Service.Job.Characterize job)
        (Service.Runner.characterize job) print
  in
  let doc = "Simulate timing/energy arcs of a library cell." in
  Cmd.v (Cmd.info "characterize" ~doc)
    Term.(const run $ cell_arg
          $ drive_arg ~docv:"K"
              ("Drive strength, a multiple of INV1X.  Above 1X the library \
                has only " ^ sized_cells ^ ".")
          $ load $ cmos_flag)

(* flow *)

let flow_cmd =
  let netlist_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"NETLIST"
           ~doc:"Structural netlist file (see Flow.Netlist_ir format). \
                 Without it, the paper's Figure-8 full-adder case study is \
                 run.")
  in
  let design_arg =
    Arg.(value & opt (some string) None & info [ "design" ] ~docv:"SPEC"
           ~doc:"Generate the netlist instead of reading one: mult<N> \
                 (array multiplier), lfsr<N>x<S> (unrolled LFSR), \
                 rand<G>s<S> (random logic cloud), ripple<N>, full_adder.")
  in
  let gds_out =
    Arg.(value & opt string "design.gds" & info [ "o" ] ~docv:"FILE"
           ~doc:"Output GDSII file.")
  in
  let scheme2 = Arg.(value & flag & info [ "scheme2" ]
                       ~doc:"Use scheme-2 shelf packing.") in
  let report =
    Arg.(value & opt ~vopt:(Some `Text) (some (enum
           [ ("text", `Text); ("json", `Json) ])) None
         & info [ "report" ] ~docv:"FORMAT"
             ~doc:"Print the per-pass timing/counter report (text or json).")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Log pass enter/exit events to stderr.")
  in
  let run path design gds_out scheme2 report trace tel =
    let source =
      match (design, path) with
      | Some spec, _ -> Service.Job.Generated spec
      | None, None -> Service.Job.Full_adder
      | None, Some p ->
        Service.Job.Netlist_text
          (In_channel.with_open_bin p In_channel.input_all)
    in
    let job =
      { Service.Job.source; scheme = (if scheme2 then `S2 else `S1);
        aspect = 1.0 }
    in
    let trace =
      if trace then
        Some
          (fun e ->
            prerr_endline ("trace: " ^ Core.Pass.trace_event_to_string e))
      else None
    in
    run_job ~outputs:[ Some gds_out ] tel (Service.Job.Flow job)
      (fun ~pool:_ -> Service.Runner.flow ?trace job)
    @@ fun { Service.Runner.outcome; report = rep } ->
    match outcome with
    | Error d ->
      if report = Some `Text then print_string (Core.Pass.report_to_text rep);
      diag_exit d
    | Ok r ->
      let p = r.Flow.Pipeline.placement in
      Printf.printf "%s: %d cells, die %dx%d lambda, utilization %.2f\n"
        r.Flow.Pipeline.netlist.Flow.Netlist_ir.design
        (List.length p.Flow.Placer.cells)
        p.Flow.Placer.die_width p.Flow.Placer.die_height
        (Flow.Placer.utilization p);
      write_output gds_out (fun oc ->
          output_string oc r.Flow.Pipeline.gds_bytes);
      Printf.printf "wrote %s\n" gds_out;
      (match report with
      | Some `Text -> print_string (Core.Pass.report_to_text rep)
      | Some `Json -> print_endline (Core.Pass.report_to_json rep)
      | None -> ());
      0
  in
  let doc = "Run the staged logic-to-GDSII flow on a netlist." in
  Cmd.v (Cmd.info "flow" ~doc)
    Term.(const run $ netlist_arg $ design_arg $ gds_out $ scheme2 $ report
          $ trace $ telemetry_args)

(* fo4 *)

let fo4_cmd =
  let tubes =
    Arg.(value & opt int 8 & info [ "tubes"; "n" ] ~docv:"N"
           ~doc:"CNTs per device.")
  in
  let run tubes =
    let width_nm = Pdk.Rules.nm_of_lambda rules 4 in
    let tech = Device.Cnfet.default_tech in
    let mos = Device.Mosfet.default_tech in
    let cn =
      Circuit.Inverter_chain.fo4_exn ~vdd:1.0 (fun () ->
          {
            Circuit.Inverter_chain.pull_up =
              Device.Cnfet.make tech ~polarity:Device.Model.Pfet ~tubes
                ~width_nm ();
            pull_down =
              Device.Cnfet.make tech ~polarity:Device.Model.Nfet ~tubes
                ~width_nm ();
          })
    in
    let cm =
      Circuit.Inverter_chain.fo4_exn ~vdd:1.0 (fun () ->
          {
            Circuit.Inverter_chain.pull_up =
              Device.Mosfet.make mos ~polarity:Device.Model.Pfet
                ~width_nm:(width_nm *. 1.4) ();
            pull_down =
              Device.Mosfet.make mos ~polarity:Device.Model.Nfet ~width_nm ();
          })
    in
    Printf.printf
      "CNFET %d tubes (pitch %.1f nm): FO4 %.2f ps, %.3f fJ\n\
       CMOS 65nm:                     FO4 %.2f ps, %.3f fJ\n\
       gains: %.2fx delay, %.2fx energy\n"
      tubes
      (Device.Cnfet.pitch_of ~width_nm ~tubes)
      (cn.Circuit.Inverter_chain.delay *. 1e12)
      (cn.Circuit.Inverter_chain.energy_per_cycle *. 1e15)
      (cm.Circuit.Inverter_chain.delay *. 1e12)
      (cm.Circuit.Inverter_chain.energy_per_cycle *. 1e15)
      (cm.Circuit.Inverter_chain.delay /. cn.Circuit.Inverter_chain.delay)
      (cm.Circuit.Inverter_chain.energy_per_cycle
      /. cn.Circuit.Inverter_chain.energy_per_cycle);
    0
  in
  let doc = "FO4 inverter-chain comparison (case study 1)." in
  Cmd.v (Cmd.info "fo4" ~doc) Term.(const run $ tubes)

(* serve *)

let serve_cmd =
  let domains =
    domains_arg
      "Worker domains for intra-job parallelism (campaign map-reduce, \
       sweep fan-out).  Job results are bit-identical for every N."
  in
  let capacity =
    Arg.(value & opt int 64 & info [ "capacity" ] ~docv:"N"
           ~doc:"Maximum queued jobs; further submissions are rejected \
                 with a structured diagnostic (backpressure, not a hang).")
  in
  let cache_dir =
    Arg.(value & opt string "_artifacts/service_cache"
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Directory for the persisted result cache (one JSON \
                   file per job digest).")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ]
           ~doc:"Disable the persisted result cache (the in-memory cache \
                 still deduplicates within the session).")
  in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Serve on a Unix-domain socket at $(docv) instead of \
                 stdin/stdout.")
  in
  let connections =
    Arg.(value & opt int 1 & info [ "connections" ] ~docv:"N"
           ~doc:"With --socket: total number of connections to serve \
                 before exiting (the result cache persists across \
                 them).  Connections are served concurrently, up to \
                 --max-conns at a time.")
  in
  let max_conns =
    Arg.(value & opt int 8 & info [ "max-conns" ] ~docv:"N"
           ~doc:"With --socket: maximum simultaneous connections; \
                 further clients wait in the listen backlog until a \
                 slot frees up.")
  in
  let idle_timeout_ms =
    Arg.(value & opt (some float) None
         & info [ "idle-timeout-ms" ] ~docv:"MS"
             ~doc:"With --socket: close a connection that has sent \
                   nothing and has no job in flight for $(docv) \
                   milliseconds.")
  in
  let rate_limit =
    Arg.(value & opt (some float) None
         & info [ "rate-limit" ] ~docv:"N"
             ~doc:"With --socket: per-connection submit budget in \
                   jobs/second (token bucket, burst of max(1,$(docv))); \
                   submissions over budget get a structured \
                   $(i,rejected) event naming the reason and the \
                   connection stays up.")
  in
  let queue_high_water =
    Arg.(value & opt (some int) None
         & info [ "queue-high-water" ] ~docv:"N"
             ~doc:"With --socket: refuse submissions while the shared \
                   queue depth is at or above $(docv) (admission \
                   control below the hard --capacity bound).")
  in
  let replay =
    Arg.(value & flag & info [ "replay" ]
           ~doc:"Deterministic mode: drive the scheduler on a virtual \
                 clock, so each job's $(b,wall_ms) is its declared cost. \
                 Over stdio without $(b,--workers) the whole transcript \
                 (order, queue waits, timestamps) is then an exact \
                 function of the request stream.  Over $(b,--socket) \
                 jobs run as they arrive, and with $(b,--workers) \
                 completions come in the order the children finish, so \
                 there only each job's result and wall time are exact.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Dump the Prometheus text exposition (v0.0.4) of the \
                   telemetry registry to $(docv) about once a second \
                   while serving, and once more at exit.  The write is \
                   atomic (tmp + rename), so a scraper reading the file \
                   never sees a torn document.")
  in
  let event_log =
    Arg.(value & opt (some string) None
         & info [ "event-log" ] ~docv:"FILE"
             ~doc:"Append the structured event log to $(docv) as NDJSON, \
                   one event per line as it happens (submissions, state \
                   transitions, cache hits, rejections, connection \
                   errors), each with its trace id.")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
           ~doc:"Write-ahead journal: fsync every accepted submission \
                 and every settlement to $(docv), and on startup replay \
                 it against the result cache — completed jobs rehydrate \
                 the ledger, interrupted ones re-enqueue and re-run \
                 bit-identically.  A kill -9 mid-batch loses nothing.")
  in
  let workers =
    Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N"
           ~doc:"Shard job execution across $(docv) child worker \
                 processes (0 = run jobs in-process).  A worker that \
                 dies mid-job is respawned and its job requeued; \
                 duplicate in-flight digests are deduplicated, not \
                 double-run.")
  in
  let run domains capacity cache_dir no_cache socket connections max_conns
      idle_timeout_ms rate_limit queue_high_water replay journal workers
      metrics_out event_log tel =
    or_diag_exit @@ fun () ->
    Core.Diag.ok_exn (check_outputs [ event_log; metrics_out; snd tel ]);
    (* the serving layer is always observable: metrics/health/event ops
       must answer with data whether or not a summary was asked for *)
    Telemetry.reset ();
    Telemetry.enable ();
    Telemetry.Events.clear ();
    let event_sink =
      match event_log with
      | None -> None
      | Some path ->
        let oc =
          try open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
          with Sys_error m -> raise (Core.Diag.Failure (cannot_write path m))
        in
        Telemetry.Events.set_sink
          (Some
             (fun line ->
               output_string oc line;
               output_char oc '\n';
               flush oc));
        Some oc
    in
    let dump_metrics path =
      let body = Telemetry.Prometheus.render (Telemetry.collect ()) in
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      output_string oc body;
      close_out oc;
      Sys.rename tmp path
    in
    let on_tick =
      match metrics_out with
      | None -> None
      | Some path ->
        let last = ref neg_infinity in
        Some
          (fun () ->
            let now = Unix.gettimeofday () in
            if now -. !last >= 1.0 then begin
              last := now;
              dump_metrics path
            end)
    in
    let config =
      {
        Service.Scheduler.domains;
        capacity;
        cache_dir = (if no_cache then None else Some cache_dir);
        clock =
          (if replay then Service.Scheduler.Virtual
           else Service.Scheduler.Wall);
        journal;
      }
    in
    Service.Scheduler.with_scheduler ~config (fun sched ->
        (match journal with
        | None -> ()
        | Some _ ->
          (match Service.Scheduler.recover sched with
          | Ok r ->
            Printf.eprintf
              "serve: journal recovered %d settled, %d requeued%s\n%!"
              r.Service.Scheduler.rec_settled r.Service.Scheduler.rec_requeued
              (if r.Service.Scheduler.rec_truncated then
                 " (torn trailing record discarded)"
               else "")
          | Error d -> raise (Core.Diag.Failure d)));
        let pool =
          if workers <= 0 then None
          else
            Some
              (Service.Workers.create
                 ~argv:
                   [|
                     Sys.executable_name; "worker"; "--domains";
                     string_of_int domains;
                   |]
                 ~n:workers)
        in
        Fun.protect
          ~finally:(fun () ->
            match pool with
            | Some w -> Service.Workers.shutdown w
            | None -> ())
          (fun () ->
            match socket with
            | Some path ->
              let st =
                Service.Server.serve_socket ~max_conns ?idle_timeout_ms
                  ?rate_limit ?queue_high_water ~connections ?on_tick
                  ?workers:pool sched ~path
              in
              (* the summary goes to stderr: stdout is pure NDJSON *)
              Printf.eprintf
                "serve: %d connections, %d errors, %d idle-closed, %d dropped\n%!"
                st.Service.Server.accepted st.Service.Server.conn_errors
                st.Service.Server.idle_closed st.Service.Server.dropped
            | None ->
              Service.Server.serve ?on_tick ?workers:pool sched stdin
                stdout));
    (match metrics_out with Some path -> dump_metrics path | None -> ());
    (match event_sink with
    | Some oc ->
      Telemetry.Events.set_sink None;
      close_out oc
    | None -> ());
    telemetry_finish stderr tel;
    0
  in
  let doc =
    "Serve design-kit jobs over NDJSON (one JSON request per line on \
     stdin, one response per line on stdout; see DESIGN.md for the \
     protocol).  Exits cleanly when input ends and the queue drains."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ domains $ capacity $ cache_dir $ no_cache $ socket
          $ connections $ max_conns $ idle_timeout_ms $ rate_limit
          $ queue_high_water $ replay $ journal $ workers $ metrics_out
          $ event_log $ telemetry_args)

(* worker: the child end of `serve --workers N`.  A plain stdio NDJSON
   server with no cache dir and no journal of its own — the parent owns
   both; the child only executes.  Usable standalone for debugging:
   `echo '{"op":"submit",...}' | cnfet_dk worker`. *)

let worker_cmd =
  let domains = domains_arg "Worker domains for intra-job parallelism." in
  let run domains =
    or_diag_exit @@ fun () ->
    let config =
      {
        Service.Scheduler.default_config with
        domains;
        (* the parent deduplicates, caches and journals; a private disk
           cache here would race the parent's writes *)
        cache_dir = None;
      }
    in
    Service.Scheduler.with_scheduler ~config (fun sched ->
        Service.Server.serve sched stdin stdout);
    0
  in
  let doc =
    "Run one worker process for $(b,serve --workers): an NDJSON job \
     executor on stdin/stdout with no persistent cache (the parent owns \
     caching, dedup and the journal)."
  in
  Cmd.v (Cmd.info "worker" ~doc) Term.(const run $ domains)

(* top: a polling live monitor over a serve socket.  One connection, one
   {"op":"health"} + {"op":"metrics"} round per refresh; quantiles are
   estimated client-side from the scraped histogram buckets — the same
   estimator the text summary uses — so the monitor exercises the
   Prometheus exposition round-trip end to end. *)

let top_cmd =
  let socket =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"The Unix-domain socket of a running serve session.")
  in
  let interval_ms =
    Arg.(value & opt float 1000. & info [ "interval-ms" ] ~docv:"MS"
           ~doc:"Refresh interval.")
  in
  let iterations =
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N"
           ~doc:"Stop after $(docv) refreshes (0 = run until the server \
                 goes away).")
  in
  let no_clear =
    Arg.(value & flag & info [ "no-clear" ]
           ~doc:"Append each refresh instead of redrawing in place \
                 (useful when piping to a file).")
  in
  (* rebuild a Telemetry.Hist.t from the scraped cumulative _bucket
     samples of one histogram family, so quantile_of_hist applies *)
  let hist_of_samples samples family =
    let module P = Telemetry.Prometheus in
    let le s =
      match List.assoc_opt "le" s.P.labels with
      | Some "+Inf" -> Some infinity
      | Some v -> float_of_string_opt v
      | None -> None
    in
    let buckets =
      List.filter_map
        (fun s ->
          if s.P.metric = family ^ "_bucket" then
            Option.map (fun b -> (b, s.P.value)) (le s)
          else None)
        samples
    in
    let scalar suffix =
      List.find_map
        (fun s -> if s.P.metric = family ^ suffix then Some s.P.value else None)
        samples
    in
    match List.sort compare buckets with
    | [] -> None
    | sorted ->
      let finite = List.filter (fun (b, _) -> Float.is_finite b) sorted in
      let bounds = Array.of_list (List.map fst finite) in
      let total =
        match scalar "_count" with
        | Some c -> int_of_float c
        | None -> ( match sorted with [] -> 0 | l ->
                      int_of_float (snd (List.nth l (List.length l - 1))))
      in
      let counts = Array.make (Array.length bounds + 1) 0 in
      let prev = ref 0. in
      List.iteri
        (fun i (_, cum) ->
          counts.(i) <- int_of_float (cum -. !prev);
          prev := cum)
        finite;
      counts.(Array.length bounds) <- max 0 (total - int_of_float !prev);
      Some
        {
          Telemetry.Hist.buckets = bounds;
          counts;
          count = total;
          sum = Option.value ~default:0. (scalar "_sum");
        }
  in
  let get obj name = Core.Json.member name obj in
  let num obj name =
    Option.value ~default:0. (Option.bind (get obj name) Core.Json.to_float)
  in
  let int_f obj name = int_of_float (num obj name) in
  let run path interval_ms iterations no_clear =
    match
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
    with
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "cnfet_dk top: cannot connect to %s: %s\n" path
        (Unix.error_message e);
      1
    | fd ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let request op =
        output_string oc
          (Core.Json.to_string (Core.Json.Obj [ ("op", Core.Json.Str op) ]));
        output_char oc '\n';
        flush oc;
        match input_line ic with
        | line -> Core.Json.of_string line |> Result.to_option
        | exception End_of_file -> None
      in
      let prev_done = ref None in
      let rec poll i =
        match (request "health", request "metrics") with
        | Some health, Some metrics ->
          let body =
            Option.value ~default:""
              (Option.bind (get metrics "body") Core.Json.to_str)
          in
          let samples = Telemetry.Prometheus.parse body in
          let qwait = hist_of_samples samples "service_queue_wait_ms" in
          let buf = Buffer.create 1024 in
          let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
          if not no_clear then Buffer.add_string buf "\027[2J\027[H";
          add "cnfet_dk top — %s   uptime %.1fs\n" path
            (num health "uptime_ms" /. 1000.);
          add
            "jobs: queued %d (high %d / normal %d / low %d)   in-flight %d   \
             done %d   failed %d   cache hits %d\n"
            (int_f health "queued") (int_f health "queued_high")
            (int_f health "queued_normal") (int_f health "queued_low")
            (int_f health "in_flight") (int_f health "done")
            (int_f health "failed") (int_f health "cache_hits");
          let done_now = int_f health "done" in
          (match !prev_done with
          | Some d when interval_ms > 0. ->
            add "throughput: %.1f jobs/s\n"
              (float_of_int (done_now - d) /. (interval_ms /. 1000.))
          | _ -> add "throughput: --\n");
          prev_done := Some done_now;
          (match qwait with
          | Some h ->
            let q p =
              match Telemetry.quantile_of_hist h p with
              | Some v -> Printf.sprintf "%.2f ms" v
              | None -> "--"
            in
            add "queue wait: p50 %s   p90 %s   p99 %s   (%d observed)\n"
              (q 0.5) (q 0.9) (q 0.99) h.Telemetry.Hist.count
          | None -> add "queue wait: no samples yet\n");
          add "conns: %d active / %d accepted / %d errors / %d idle-closed / \
               %d dropped\n"
            (int_f health "conns_active") (int_f health "conns_accepted")
            (int_f health "conn_errors") (int_f health "conns_idle_closed")
            (int_f health "conns_dropped");
          (match Option.bind (get health "connections") (function
             | Core.Json.Arr l -> Some l
             | _ -> None)
           with
          | Some (_ :: _ as l) ->
            add "  %4s %6s %9s %8s %8s\n" "CID" "JOBS" "OUT_B" "AGE_S"
              "IDLE_S";
            List.iter
              (fun c ->
                add "  %4d %6d %9d %8.1f %8.1f\n" (int_f c "cid")
                  (int_f c "owned_jobs") (int_f c "out_bytes")
                  (num c "age_ms" /. 1000.)
                  (num c "idle_ms" /. 1000.))
              l
          | _ -> ());
          print_string (Buffer.contents buf);
          flush Stdlib.stdout;
          if iterations > 0 && i >= iterations then 0
          else begin
            Unix.sleepf (Float.max 0.01 (interval_ms /. 1000.));
            poll (i + 1)
          end
        | _ ->
          prerr_endline "cnfet_dk top: server closed the connection";
          if i > 1 then 0 else 1
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> poll 1)
  in
  let doc =
    "Live monitor for a serve socket: queue depth, throughput, latency \
     quantiles (estimated from the scraped Prometheus histogram) and \
     per-client stats, refreshed in place."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const run $ socket $ interval_ms $ iterations $ no_clear)

let () =
  let doc = "CNFET design kit: imperfection-immune layouts, logic-to-GDSII." in
  let info = Cmd.info "cnfet_dk" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ layout_cmd; fault_cmd; test_gen_cmd; dse_cmd; table1_cmd;
            characterize_cmd; flow_cmd; fo4_cmd; serve_cmd; worker_cmd;
            top_cmd ]))
