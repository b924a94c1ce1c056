(* Experiment harness: one function per table/figure of the paper.  Each
   prints the paper's numbers next to the measured ones so EXPERIMENTS.md
   can be regenerated by running this executable. *)

let rules = Pdk.Rules.default
let vdd = 1.0

(* Benches are experiment drivers: unwrap library results at the boundary,
   aborting loudly on a Diag error. *)
let ok r = Core.Diag.ok_exn r

(* Monte-Carlo campaigns use every available core; outcomes are
   domain-count-independent, so the printed numbers don't change with the
   hardware. *)
let domains = Domain.recommended_domain_count ()

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table 1: area difference, new vs old immune layouts                 *)
(* ------------------------------------------------------------------ *)

let table1 () =
  hr "Table 1: area difference between new and old [6] immune layouts (%)";
  Printf.printf "%-7s %28s | %28s\n" "cell" "paper (3/4/6/10 lambda)"
    "measured (3/4/6/10 lambda)";
  List.iter
    (fun (name, paper_row) ->
      let fn = Logic.Cell_fun.find name in
      let measured =
        List.map
          (fun (size, _) -> (Cnfet.Compare.row ~rules fn ~size).Cnfet.Compare.saving_pct)
          paper_row
      in
      let fmt xs =
        String.concat " " (List.map (Printf.sprintf "%6.2f") xs)
      in
      Printf.printf "%-7s %28s | %28s\n" name
        (fmt (List.map snd paper_row))
        (fmt measured))
    Cnfet.Compare.paper_table1;
  Printf.printf
    "(trends to check: 0%% for INV; decreasing with size; increasing with \
     fan-in; AOI21 > AOI22)\n"

(* ------------------------------------------------------------------ *)
(* Figure 2: misposition immunity, vulnerable vs immune NAND           *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  hr "Figure 2: mispositioned-CNT injection on NAND2 layouts";
  let fn = Logic.Cell_fun.nand 2 in
  let cfg = { Fault.Injector.default_config with Fault.Injector.trials = 2000 } in
  Printf.printf "%-28s %10s %10s %8s %s\n" "layout" "MC fail" "shorted"
    "strays" "horizontal sweep";
  List.iter
    (fun (style, label) ->
      let cell =
        Layout.Cell.make_exn ~rules ~fn ~style ~scheme:Layout.Cell.Scheme1 ~drive:4
      in
      let o = Fault.Injector.run ~domains cfg cell in
      let sweep =
        match Fault.Injector.horizontal_sweep cell with
        | Ok () -> "immune"
        | Error ys -> Printf.sprintf "FAILS (%d corridors)" (List.length ys)
      in
      Printf.printf "%-28s %9.2f%% %10d %8d %s\n" label
        (100. *. Fault.Injector.failure_rate o)
        o.Fault.Injector.shorted_trials o.Fault.Injector.stray_edges sweep)
    [
      (Layout.Cell.Vulnerable, "vulnerable (Fig 2b)");
      (Layout.Cell.Immune_old, "etched-region immune [6]");
      (Layout.Cell.Immune_new, "compact immune (this paper)");
    ];
  Printf.printf "(paper: vulnerable layouts lose functionality; immune \
                 layouts keep 100%%)\n"

(* Full-catalog immunity proof *)
let immunity_catalog () =
  hr "Immunity across the full cell catalog (new compact layouts)";
  let cfg = { Fault.Injector.default_config with Fault.Injector.trials = 500 } in
  List.iter
    (fun fn ->
      let cell =
        Layout.Cell.make_exn ~rules ~fn ~style:Layout.Cell.Immune_new
          ~scheme:Layout.Cell.Scheme1 ~drive:4
      in
      let o = Fault.Injector.run ~domains cfg cell in
      let sweep =
        match Fault.Injector.horizontal_sweep cell with
        | Ok () -> "sweep ok"
        | Error _ -> "SWEEP FAIL"
      in
      Printf.printf "  %-6s MC %d/%d failures, %s\n" fn.Logic.Cell_fun.name
        o.Fault.Injector.functional_failures o.Fault.Injector.trials sweep)
    Logic.Cell_fun.all

(* ------------------------------------------------------------------ *)
(* Figure 7: FO4 delay gain vs number of CNTs                          *)
(* ------------------------------------------------------------------ *)

let cmos_inverter_measurement () =
  let mos = Device.Mosfet.default_tech in
  let width_n = Pdk.Rules.nm_of_lambda rules 4 in
  let width_p = width_n *. rules.Pdk.Rules.cmos_pn_ratio in
  let inv () =
    {
      Circuit.Inverter_chain.pull_up =
        Device.Mosfet.make mos ~polarity:Device.Model.Pfet ~width_nm:width_p ();
      pull_down =
        Device.Mosfet.make mos ~polarity:Device.Model.Nfet ~width_nm:width_n ();
    }
  in
  Circuit.Inverter_chain.fo4_exn ~vdd inv

let cnfet_inverter_measurement ?(tech = Device.Cnfet.default_tech) tubes =
  let width_nm = Pdk.Rules.nm_of_lambda rules 4 in
  let inv () =
    {
      Circuit.Inverter_chain.pull_up =
        Device.Cnfet.make tech ~polarity:Device.Model.Pfet ~tubes ~width_nm ();
      pull_down =
        Device.Cnfet.make tech ~polarity:Device.Model.Nfet ~tubes ~width_nm ();
    }
  in
  Circuit.Inverter_chain.fo4_exn ~vdd inv

let fig7_series ?tech () =
  let cm = cmos_inverter_measurement () in
  let tubes = List.init 32 (fun i -> i + 1) in
  ( cm,
    List.map
      (fun n ->
        let m = cnfet_inverter_measurement ?tech n in
        (n, m))
      tubes )

let fig7 () =
  hr "Figure 7: FO4 delay gain of the CNFET inverter vs number of CNTs";
  let cm, series = fig7_series () in
  Printf.printf
    "CMOS 65nm reference: FO4 delay %.2f ps, energy/cycle %.3f fJ\n"
    (cm.Circuit.Inverter_chain.delay *. 1e12)
    (cm.Circuit.Inverter_chain.energy_per_cycle *. 1e15);
  Printf.printf "%4s %10s %12s %10s %12s %10s\n" "CNTs" "pitch(nm)"
    "delay(ps)" "gain" "energy(fJ)" "E gain";
  let width_nm = Pdk.Rules.nm_of_lambda rules 4 in
  List.iter
    (fun (n, (m : Circuit.Inverter_chain.measurement)) ->
      let pitch = Device.Cnfet.pitch_of ~width_nm ~tubes:n in
      Printf.printf "%4d %10.1f %12.2f %10.2f %12.3f %10.2f\n" n
        (if Float.is_integer pitch || Float.is_nan pitch then pitch else pitch)
        (m.Circuit.Inverter_chain.delay *. 1e12)
        (cm.Circuit.Inverter_chain.delay /. m.Circuit.Inverter_chain.delay)
        (m.Circuit.Inverter_chain.energy_per_cycle *. 1e15)
        (cm.Circuit.Inverter_chain.energy_per_cycle
        /. m.Circuit.Inverter_chain.energy_per_cycle))
    series;
  (* optimum and 1% band *)
  let best_n, best =
    List.fold_left
      (fun (bn, bm) (n, m) ->
        if
          m.Circuit.Inverter_chain.delay
          < bm.Circuit.Inverter_chain.delay
        then (n, m)
        else (bn, bm))
      (List.nth series 0) series
  in
  let best_gain =
    cm.Circuit.Inverter_chain.delay /. best.Circuit.Inverter_chain.delay
  in
  let band =
    List.filter
      (fun (_, m) ->
        m.Circuit.Inverter_chain.delay
        <= 1.01 *. best.Circuit.Inverter_chain.delay)
      series
    |> List.map (fun (n, _) -> Device.Cnfet.pitch_of ~width_nm ~tubes:n)
  in
  let band_lo = List.fold_left Float.min infinity band
  and band_hi =
    List.fold_left
      (fun a p -> if Float.is_finite p then Float.max a p else a)
      0. band
  in
  let n1 = List.assoc 1 series in
  Printf.printf
    "\nanchors:   paper                 | measured\n";
  Printf.printf "  1 CNT:   2.75x delay, 6.3x E  | %.2fx delay, %.2fx E\n"
    (cm.Circuit.Inverter_chain.delay /. n1.Circuit.Inverter_chain.delay)
    (cm.Circuit.Inverter_chain.energy_per_cycle
    /. n1.Circuit.Inverter_chain.energy_per_cycle);
  Printf.printf
    "  optimum: pitch 5nm, 4.2x, 2x E | pitch %.1fnm (n=%d), %.2fx, %.2fx E\n"
    (Device.Cnfet.pitch_of ~width_nm ~tubes:best_n)
    best_n best_gain
    (cm.Circuit.Inverter_chain.energy_per_cycle
    /. best.Circuit.Inverter_chain.energy_per_cycle);
  Printf.printf
    "  1%%-flat pitch band: paper 4.5-5.5nm | measured %.1f-%.1fnm\n" band_lo
    band_hi

let fig7_screening_ablation () =
  hr "Ablation: screening length p0 vs optimal pitch (Fig 7 sensitivity)";
  Printf.printf "%8s %12s %12s %10s\n" "p0(nm)" "opt pitch" "opt CNTs"
    "opt gain";
  let cm = cmos_inverter_measurement () in
  List.iter
    (fun p0 ->
      let tech =
        { Device.Cnfet.default_tech with Device.Cnfet.screening_p0_nm = p0 }
      in
      let _, series = fig7_series ~tech () in
      let best_n, best =
        List.fold_left
          (fun (bn, bm) (n, m) ->
            if m.Circuit.Inverter_chain.delay < bm.Circuit.Inverter_chain.delay
            then (n, m)
            else (bn, bm))
          (List.nth series 0) series
      in
      let width_nm = Pdk.Rules.nm_of_lambda rules 4 in
      Printf.printf "%8.1f %12.1f %12d %10.2f\n" p0
        (Device.Cnfet.pitch_of ~width_nm ~tubes:best_n)
        best_n
        (cm.Circuit.Inverter_chain.delay /. best.Circuit.Inverter_chain.delay))
    [ 10.; 15.; 19.7; 25.; 30. ]

(* ------------------------------------------------------------------ *)
(* Case study 1: inverter footprint                                    *)
(* ------------------------------------------------------------------ *)

let cs1_area () =
  hr "Case study 1: CNFET vs CMOS inverter footprint";
  Printf.printf "%8s %14s %14s %8s\n" "width" "CNFET (l^2)" "CMOS (l^2)"
    "gain";
  List.iter
    (fun width ->
      let fp = Cnfet.Compare.inverter_footprint ~rules ~width () in
      Printf.printf "%7dl %14d %14d %7.2fx\n" width
        fp.Cnfet.Compare.cnfet_area fp.Cnfet.Compare.cmos_area
        fp.Cnfet.Compare.gain)
    [ 3; 4; 6; 10; 16 ];
  Printf.printf
    "(paper: 1.4x at 4 lambda, declining for bigger widths since the \
     PUN/PDN distance is fixed)\n"

(* ------------------------------------------------------------------ *)
(* Case study 2: full adder                                            *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Case study 2: full adder                                            *)
(* ------------------------------------------------------------------ *)

let fa_drives = [ 1; 2; 4; 7; 9 ]

(* Transistor-level simulation of the full adder in carry-propagate mode
   (A=1, B=0): COUT and SUM follow CIN. *)
let fa_transistor_sim ~lib =
  let fa = Flow.Full_adder.netlist () in
  let net = Circuit.Netlist.create () in
  let vdd_node = Circuit.Netlist.node net "vdd" in
  Circuit.Netlist.add_vsource net vdd_node (Circuit.Stimulus.dc vdd);
  let node_of name = Circuit.Netlist.node net ("net_" ^ name) in
  Circuit.Netlist.add_vsource net (node_of "A") (Circuit.Stimulus.dc vdd);
  Circuit.Netlist.add_vsource net (node_of "B") (Circuit.Stimulus.dc 0.);
  let period = 4e-9 in
  Circuit.Netlist.add_vsource net (node_of "CIN")
    (Circuit.Stimulus.pulse ~period ~rise:(period /. 200.) ~lo:0. ~hi:vdd);
  List.iter
    (fun (i : Flow.Netlist_ir.instance) ->
      let fn = Logic.Cell_fun.find i.Flow.Netlist_ir.cell in
      let inputs =
        List.map (fun (f, n) -> (f, node_of n)) i.Flow.Netlist_ir.conns
      in
      Stdcell.Gate_netlist.add_gate net (Stdcell.Library.factory lib) ~fn
        ~drive:(i.Flow.Netlist_ir.drive * Stdcell.Library.base_width_lambda)
        ~prefix:i.Flow.Netlist_ir.inst_name
        ~out:(node_of i.Flow.Netlist_ir.output)
        ~inputs ~vdd:vdd_node)
    fa.Flow.Netlist_ir.instances;
  let config =
    { Circuit.Transient.default_config with
      Circuit.Transient.t_stop = 3. *. period }
  in
  let cin = node_of "CIN" and cout = node_of "COUT" and sum = node_of "SUM" in
  let r = Circuit.Transient.run ~config net ~probes:[ cin; cout; sum ] in
  let level = vdd /. 2. in
  let steady w =
    List.filter (fun (t, _) -> t > period)
      (Circuit.Waveform.crossings (Circuit.Transient.wave r w) ~level)
  in
  let delay_to out =
    let ins = steady cin and outs = steady out in
    let ds =
      List.filter_map
        (fun (ti, _) ->
          match List.find_opt (fun (to_, _) -> to_ > ti) outs with
          | Some (to_, _) -> Some (to_ -. ti)
          | None -> None)
        ins
    in
    match ds with
    | [] -> nan
    | _ -> List.fold_left ( +. ) 0. ds /. float_of_int (List.length ds)
  in
  let energy = Circuit.Transient.energy_from r vdd_node /. 3. in
  (delay_to cout, delay_to sum, energy)

let cs2 () =
  hr "Case study 2: full adder in NAND2 + INV (Figure 8)";
  let fa = Flow.Full_adder.netlist () in
  (match Flow.Full_adder.check () with
  | Ok () -> Printf.printf "structure check: full adder is correct\n"
  | Error e -> Printf.printf "STRUCTURE CHECK FAILED: %s\n" (Core.Diag.to_string e));
  Printf.printf "gate census: %s\n"
    (String.concat ", "
       (List.map
          (fun (c, n) -> Printf.sprintf "%dx %s" n c)
          (Flow.Netlist_ir.stats fa)));
  let cn_lib = Stdcell.Library.cnfet_exn ~drives:fa_drives () in
  let cm_lib = Stdcell.Library.cmos_exn ~drives:fa_drives () in
  (* timing and energy *)
  let d_cn, s_cn, e_cn = fa_transistor_sim ~lib:cn_lib in
  let d_cm, s_cm, e_cm = fa_transistor_sim ~lib:cm_lib in
  Printf.printf "\ntiming (carry-propagate mode, CIN -> COUT):\n";
  Printf.printf "  CNFET: carry %.1f ps, sum %.1f ps, energy/cycle %.2f fJ\n"
    (d_cn *. 1e12) (s_cn *. 1e12) (e_cn *. 1e15);
  Printf.printf "  CMOS:  carry %.1f ps, sum %.1f ps, energy/cycle %.2f fJ\n"
    (d_cm *. 1e12) (s_cm *. 1e12) (e_cm *. 1e15);
  Printf.printf
    "  gains: delay %.2fx (paper ~3.5x), energy %.2fx (paper ~1.5x)\n"
    (d_cm /. d_cn) (e_cm /. e_cn);
  (* area: placements *)
  let p1 = ok (Flow.Placer.rows ~lib:cn_lib fa) in
  let p2 = ok (Flow.Placer.shelves ~lib:cn_lib fa) in
  let pc = ok (Flow.Placer.rows ~lib:cm_lib fa) in
  let area p = Flow.Placer.die_area p in
  Printf.printf "\nplacement (die area in lambda^2, utilization):\n";
  Printf.printf "  CMOS rows:        %7d  util %.2f\n" (area pc)
    (Flow.Placer.utilization pc);
  Printf.printf "  CNFET scheme 1:   %7d  util %.2f  gain %.2fx (paper ~1.4x)\n"
    (area p1) (Flow.Placer.utilization p1)
    (float_of_int (area pc) /. float_of_int (area p1));
  Printf.printf "  CNFET scheme 2:   %7d  util %.2f  gain %.2fx (paper ~1.6x)\n"
    (area p2) (Flow.Placer.utilization p2)
    (float_of_int (area pc) /. float_of_int (area p2));
  Printf.printf "  wirelength (HPWL): cmos %d, s1 %d, s2 %d lambda\n"
    (Flow.Placer.wirelength_estimate pc fa)
    (Flow.Placer.wirelength_estimate p1 fa)
    (Flow.Placer.wirelength_estimate p2 fa);
  (* GDSII out *)
  let artifacts = "_artifacts" in
  if not (Sys.file_exists artifacts) then Sys.mkdir artifacts 0o755;
  let out1 = Filename.concat artifacts "full_adder_scheme1.gds" in
  let out2 = Filename.concat artifacts "full_adder_scheme2.gds" in
  let write path scheme name p =
    let bytes = ok (Flow.Gds_export.placement ~lib:cn_lib ~scheme ~name p) in
    Out_channel.with_open_bin path (fun oc -> output_string oc bytes)
  in
  write out1 `S1 "fa_s1" p1;
  write out2 `S2 "fa_s2" p2;
  (* round-trip sanity *)
  (match Gds.Stream.read_file out1 with
  | Ok lib -> Printf.printf "GDSII: wrote %s (%d structures, round-trip ok)\n"
                out1 (List.length lib.Gds.Stream.structures)
  | Error e -> Printf.printf "GDSII round-trip FAILED: %s\n" e);
  (match Gds.Stream.read_file out2 with
  | Ok lib -> Printf.printf "GDSII: wrote %s (%d structures, round-trip ok)\n"
                out2 (List.length lib.Gds.Stream.structures)
  | Error e -> Printf.printf "GDSII round-trip FAILED: %s\n" e)

(* ------------------------------------------------------------------ *)
(* Summary metrics: EDP / EDAP                                         *)
(* ------------------------------------------------------------------ *)

let summary () =
  hr "Summary: EDP and EDAP gains (abstract / conclusions)";
  let cm = cmos_inverter_measurement () in
  let _, series = fig7_series () in
  let _, best =
    List.fold_left
      (fun (bn, bm) (n, m) ->
        if m.Circuit.Inverter_chain.delay < bm.Circuit.Inverter_chain.delay
        then (n, m)
        else (bn, bm))
      (List.nth series 0) series
  in
  let fp = Cnfet.Compare.inverter_footprint ~rules ~width:4 () in
  let cn_pt =
    {
      Cnfet.Metrics.delay_s = best.Circuit.Inverter_chain.delay;
      energy_j = best.Circuit.Inverter_chain.energy_per_cycle;
      area_lambda2 = float_of_int fp.Cnfet.Compare.cnfet_area;
    }
  in
  let cm_pt =
    {
      Cnfet.Metrics.delay_s = cm.Circuit.Inverter_chain.delay;
      energy_j = cm.Circuit.Inverter_chain.energy_per_cycle;
      area_lambda2 = float_of_int fp.Cnfet.Compare.cmos_area;
    }
  in
  Printf.printf "inverter at optimal pitch vs CMOS 65nm:\n";
  Printf.printf "  delay gain   %.2fx (paper: >4x)\n"
    (cm_pt.Cnfet.Metrics.delay_s /. cn_pt.Cnfet.Metrics.delay_s);
  Printf.printf "  energy gain  %.2fx (paper: 2x)\n"
    (cm_pt.Cnfet.Metrics.energy_j /. cn_pt.Cnfet.Metrics.energy_j);
  Printf.printf "  area gain    %.2fx (paper: >30%% savings)\n"
    (cm_pt.Cnfet.Metrics.area_lambda2 /. cn_pt.Cnfet.Metrics.area_lambda2);
  Printf.printf "  EDP gain     %.2fx (paper: >10x claimed; 8.4x from 4.2*2)\n"
    (Cnfet.Metrics.edp_gain ~baseline:cm_pt cn_pt);
  Printf.printf "  EDAP gain    %.2fx (paper: ~12x)\n"
    (Cnfet.Metrics.edap cm_pt /. Cnfet.Metrics.edap cn_pt)

(* ------------------------------------------------------------------ *)
(* Ablation: uniform vs non-uniform strip widths                       *)
(* ------------------------------------------------------------------ *)

let ablation_uniform () =
  hr "Ablation: uniform strip heights vs as-sized devices (AOI cells)";
  Printf.printf
    "%-7s %22s %22s\n" "cell" "uniform (MC fail, area)" "as-sized (MC fail, area)";
  List.iter
    (fun name ->
      let fn = Logic.Cell_fun.find name in
      let pdn_net = Logic.Network.of_expr fn.Logic.Cell_fun.core in
      let pun_net = Logic.Network.dual pdn_net in
      let probe uniform =
        let pdn =
          ok
            (Layout.Immune_new.strip ~uniform ~rules
               ~polarity:Logic.Network.N_type
               ~widths:(Layout.Sizing.widths ~base:4 pdn_net)
               pdn_net)
        in
        let pun =
          ok
            (Layout.Immune_new.strip ~uniform ~rules
               ~polarity:Logic.Network.P_type
               ~widths:(Layout.Sizing.widths ~base:4 pun_net)
               pun_net)
        in
        (* assemble a minimal cell around the fabrics for injection *)
        let cell =
          Layout.Cell.make_exn ~rules ~fn ~style:Layout.Cell.Immune_new
            ~scheme:Layout.Cell.Scheme1 ~drive:4
        in
        let cell =
          { cell with
            Layout.Cell.pun;
            pdn =
              Layout.Fabric.translate ~dx:0
                ~dy:(Layout.Fabric.height pun + rules.Pdk.Rules.cnfet_pun_pdn_sep)
                pdn }
        in
        let o =
          Fault.Injector.run ~domains
            { Fault.Injector.default_config with Fault.Injector.trials = 1500 }
            cell
        in
        (o.Fault.Injector.functional_failures,
         Layout.Fabric.area pun + Layout.Fabric.area pdn)
      in
      let fu, au = probe true in
      let fs, as_ = probe false in
      Printf.printf "%-7s %10d/1500 %8dl2 %10d/1500 %8dl2\n" name fu au fs as_)
    [ "AOI21"; "AOI22"; "AOI31"; "OAI21" ]

(* ------------------------------------------------------------------ *)
(* Extension: metallic-CNT yield (paper Section II, deferred to [9])   *)
(* ------------------------------------------------------------------ *)

let yield_exp () =
  hr "Extension: metallic-CNT tolerance (paper defers to Zhang et al.)";
  let cfg = Fault.Metallic.default_config in
  Printf.printf
    "per-tube: %.0f%% metallic, removal efficiency %.2f%%, %d tubes/row\n\n"
    (100. *. cfg.Fault.Metallic.p_metallic)
    (100. *. cfg.Fault.Metallic.removal_eff)
    cfg.Fault.Metallic.tubes_per_row;
  Printf.printf "%-7s %6s %12s %12s %10s %10s\n" "cell" "rows" "MC yield"
    "analytic" "shorts" "opens";
  List.iter
    (fun name ->
      let fn = Logic.Cell_fun.find name in
      let cell =
        Layout.Cell.make_exn ~rules ~fn ~style:Layout.Cell.Immune_new
          ~scheme:Layout.Cell.Scheme1 ~drive:4
      in
      let rows =
        List.length cell.Layout.Cell.pun.Layout.Fabric.rows
        + List.length cell.Layout.Cell.pdn.Layout.Fabric.rows
      in
      let o = Fault.Metallic.cell_yield cfg cell in
      Printf.printf "%-7s %6d %11.1f%% %11.1f%% %10d %10d\n" name rows
        (100. *. Fault.Metallic.yield_ o)
        (100. *. Fault.Metallic.analytic_cell_yield cfg ~rows)
        o.Fault.Metallic.killed_by_short o.Fault.Metallic.killed_by_open)
    [ "INV"; "NAND2"; "NAND3"; "AOI21"; "AOI31" ];
  Printf.printf "\nyield vs removal efficiency (NAND3):\n";
  let fn = Logic.Cell_fun.nand 3 in
  let cell =
    Layout.Cell.make_exn ~rules ~fn ~style:Layout.Cell.Immune_new
      ~scheme:Layout.Cell.Scheme1 ~drive:4
  in
  List.iter
    (fun r ->
      let cfg = { cfg with Fault.Metallic.removal_eff = r } in
      let o = Fault.Metallic.cell_yield cfg cell in
      Printf.printf "  removal %.2f%% -> yield %5.1f%%\n" (100. *. r)
        (100. *. Fault.Metallic.yield_ o))
    [ 0.9; 0.99; 0.999; 0.9999 ];
  Printf.printf
    "(matches [9]'s conclusion: VLSI-scale circuits need very high metallic \
     removal)\n"

(* ------------------------------------------------------------------ *)
(* Extension: diameter/doping variation (paper Section I)              *)
(* ------------------------------------------------------------------ *)

let variation_exp () =
  hr "Extension: CNT diameter variation vs drive spread";
  let tech = Device.Cnfet.default_tech in
  let spec = Device.Variation.default_spec in
  let width_nm = Pdk.Rules.nm_of_lambda rules 4 in
  Printf.printf "diameter %.2f +/- %.2f nm, pitch jitter %.0f%%\n\n"
    spec.Device.Variation.mean_diameter_nm
    spec.Device.Variation.sigma_diameter_nm
    (100. *. spec.Device.Variation.pitch_variation_frac);
  Printf.printf "%5s %14s %14s %14s\n" "CNTs" "mean Ion (uA)" "sigma/mean"
    "delay spread";
  List.iter
    (fun tubes ->
      let s = Device.Variation.on_current_stats ~domains tech spec ~tubes ~width_nm in
      Printf.printf "%5d %14.2f %13.1f%% %13.1f%%\n" tubes
        (s.Device.Variation.mean *. 1e6)
        (100. *. s.Device.Variation.sigma /. s.Device.Variation.mean)
        (100. *. Device.Variation.delay_spread_estimate ~domains tech spec ~tubes ~width_nm))
    [ 1; 2; 4; 8; 16; 27 ];
  Printf.printf
    "(more tubes per device average out the per-tube variation ~ 1/sqrt(n))\n"

(* ------------------------------------------------------------------ *)
(* Extension: STA vs transistor-level transient (cross-validation)     *)
(* ------------------------------------------------------------------ *)

let sta_exp () =
  hr "Extension: static timing analysis of the full adder vs transient";
  let fa = Flow.Full_adder.netlist () in
  let cn_lib = Stdcell.Library.cnfet_exn ~drives:fa_drives () in
  (* characterize the cell/drive pairs the FA uses *)
  let used =
    List.sort_uniq Stdlib.compare
      (List.map
         (fun (i : Flow.Netlist_ir.instance) ->
           (i.Flow.Netlist_ir.cell, i.Flow.Netlist_ir.drive))
         fa.Flow.Netlist_ir.instances)
  in
  let entries =
    List.map
      (fun (cell, drive) ->
        let e = Stdcell.Library.find_exn cn_lib ~name:cell ~drive in
        let arcs = Stdcell.Characterize.all_arcs_exn ~lib:cn_lib e ~load_inv1x:4 in
        (cell, drive, Stdcell.Characterize.worst_delay arcs))
      used
  in
  List.iter
    (fun (c, d, t) -> Printf.printf "  %s_%dX: %.1f ps (char @ FO4)\n" c d (t *. 1e12))
    entries;
  let table = Flow.Sta.table_of_characterization entries ~fanout_slope:0.7 in
  let report = ok (Flow.Sta.analyze table fa) in
  Printf.printf "\nSTA critical path (%.1f ps):\n"
    (report.Flow.Sta.critical_delay *. 1e12);
  List.iter
    (fun (n : Flow.Sta.path_node) ->
      Printf.printf "  %-10s -> %-6s @ %6.1f ps\n" n.Flow.Sta.through
        n.Flow.Sta.net
        (n.Flow.Sta.at *. 1e12))
    report.Flow.Sta.critical_path;
  let d_cn, s_cn, _ = fa_transistor_sim ~lib:cn_lib in
  Printf.printf
    "\ntransient: CIN->COUT %.1f ps, CIN->SUM %.1f ps (STA should bound the \
     measured path within ~2x)\n"
    (d_cn *. 1e12) (s_cn *. 1e12)

(* ------------------------------------------------------------------ *)
(* Extension: annealing placement refinement (paper future work)       *)
(* ------------------------------------------------------------------ *)

let anneal_exp () =
  hr "Extension: wirelength-driven annealing on scheme-2 placement";
  let fa = Flow.Full_adder.netlist () in
  let lib = Stdcell.Library.cnfet_exn ~drives:fa_drives () in
  List.iter
    (fun (label, p) ->
      let refined, before, after = Flow.Anneal.refine p fa in
      ignore refined;
      Printf.printf "  %-10s HPWL %5d -> %5d lambda (%.1f%% better)\n" label
        before after
        (100. *. float_of_int (before - after) /. float_of_int (max 1 before)))
    [ ("rows", ok (Flow.Placer.rows ~lib fa));
      ("shelves", ok (Flow.Placer.shelves ~lib fa)) ]

(* ------------------------------------------------------------------ *)
(* Extension: DRC over the generated library                           *)
(* ------------------------------------------------------------------ *)

let drc_exp () =
  hr "Extension: design-rule check of every generated layout";
  let styles =
    [ (Layout.Cell.Immune_new, "new"); (Layout.Cell.Immune_old, "old");
      (Layout.Cell.Cmos, "cmos") ]
  in
  let total = ref 0 and dirty = ref 0 in
  List.iter
    (fun fn ->
      List.iter
        (fun (style, label) ->
          List.iter
            (fun drive ->
              incr total;
              let c =
                Layout.Cell.make_exn ~rules ~fn ~style
                  ~scheme:Layout.Cell.Scheme1 ~drive
              in
              let violations = Layout.Drc.check_cell c in
              if violations <> [] then begin
                incr dirty;
                Printf.printf "  %s %s @%d: %d violations\n"
                  fn.Logic.Cell_fun.name label drive (List.length violations)
              end)
            [ 3; 4; 6; 10 ])
        styles)
    Logic.Cell_fun.all;
  Printf.printf "  %d layouts checked, %d with violations\n" !total !dirty;
  if !dirty = 0 then
    Printf.printf
      "  (the paper's claim holds: the technique respects conventional \
       lithography rules)\n"

(* ------------------------------------------------------------------ *)
(* Extension: ring oscillator (independent delay cross-check)          *)
(* ------------------------------------------------------------------ *)

let ring_exp () =
  hr "Extension: 5-stage ring oscillator, CNFET vs CMOS";
  let width_nm = Pdk.Rules.nm_of_lambda rules 4 in
  let cn_tech = Device.Cnfet.default_tech in
  let mos = Device.Mosfet.default_tech in
  let cn =
    Circuit.Ring_oscillator.run_exn ~vdd (fun () ->
        {
          Circuit.Inverter_chain.pull_up =
            Device.Cnfet.make cn_tech ~polarity:Device.Model.Pfet ~tubes:8
              ~width_nm ();
          pull_down =
            Device.Cnfet.make cn_tech ~polarity:Device.Model.Nfet ~tubes:8
              ~width_nm ();
        })
  in
  let cm =
    Circuit.Ring_oscillator.run_exn ~t_stop:9e-9 ~vdd (fun () ->
        {
          Circuit.Inverter_chain.pull_up =
            Device.Mosfet.make mos ~polarity:Device.Model.Pfet
              ~width_nm:(width_nm *. 1.4) ();
          pull_down =
            Device.Mosfet.make mos ~polarity:Device.Model.Nfet ~width_nm ();
        })
  in
  Printf.printf "  CNFET (8 tubes): %6.2f GHz, stage delay %5.2f ps (%d periods)\n"
    (cn.Circuit.Ring_oscillator.frequency_hz /. 1e9)
    (cn.Circuit.Ring_oscillator.stage_delay_s *. 1e12)
    cn.Circuit.Ring_oscillator.periods_observed;
  Printf.printf "  CMOS 65nm:       %6.2f GHz, stage delay %5.2f ps (%d periods)\n"
    (cm.Circuit.Ring_oscillator.frequency_hz /. 1e9)
    (cm.Circuit.Ring_oscillator.stage_delay_s *. 1e12)
    cm.Circuit.Ring_oscillator.periods_observed;
  Printf.printf
    "  frequency gain %.2fx (unloaded; FO4 gain with 4x load was ~4.2x)\n"
    (cn.Circuit.Ring_oscillator.frequency_hz
    /. cm.Circuit.Ring_oscillator.frequency_hz)

(* ------------------------------------------------------------------ *)
(* Extension: flow scaling on an N-bit ripple-carry adder              *)
(* ------------------------------------------------------------------ *)

let ripple_exp () =
  hr "Extension: ripple-carry adders through the full flow";
  let lib = Stdcell.Library.cnfet_exn ~drives:fa_drives () in
  let cm_lib = Stdcell.Library.cmos_exn ~drives:fa_drives () in
  Printf.printf "%6s %8s %12s %12s %10s %12s\n" "bits" "cells" "s1 area"
    "s2 area" "s2 util" "CMOS gain(s2)";
  List.iter
    (fun bits ->
      let n = ok (Flow.Ripple_adder.netlist ~bits) in
      (if bits <= 4 then
         match Flow.Ripple_adder.check ~bits with
         | Ok () -> ()
         | Error e -> Printf.printf "  ARITHMETIC BUG: %s\n" (Core.Diag.to_string e));
      let p1 = ok (Flow.Placer.rows ~lib n) in
      let p2 = ok (Flow.Placer.shelves ~lib n) in
      let pc = ok (Flow.Placer.rows ~lib:cm_lib n) in
      Printf.printf "%6d %8d %12d %12d %10.2f %11.2fx\n" bits
        (List.length n.Flow.Netlist_ir.instances)
        (Flow.Placer.die_area p1) (Flow.Placer.die_area p2)
        (Flow.Placer.utilization p2)
        (float_of_int (Flow.Placer.die_area pc)
        /. float_of_int (Flow.Placer.die_area p2)))
    [ 1; 2; 4; 8; 16 ];
  (* STA of the 8-bit carry chain *)
  let n8 = ok (Flow.Ripple_adder.netlist ~bits:8) in
  let table ~cell ~drive:_ ~fanout:_ =
    Ok (match cell with "NAND2" -> 8e-12 | _ -> 4e-12)
  in
  let r = ok (Flow.Sta.analyze table n8) in
  Printf.printf
    "  8-bit STA critical path: %.1f ps through %d stages (carry chain)\n"
    (r.Flow.Sta.critical_delay *. 1e12)
    (List.length r.Flow.Sta.critical_path - 1)
