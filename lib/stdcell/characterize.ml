type arc = {
  input : string;
  load_inv1x : int;
  rise_delay_s : float;
  fall_delay_s : float;
  avg_delay_s : float;
  energy_per_cycle_j : float;
}

let sensitize fn ~input =
  let expr = Logic.Cell_fun.output_expr fn in
  let names = Logic.Expr.inputs fn.Logic.Cell_fun.core in
  let others = List.filter (fun n -> n <> input) names in
  let rec search i =
    if i >= 1 lsl List.length others then raise Not_found
    else begin
      let env_others =
        List.mapi (fun k n -> (n, (i lsr k) land 1 = 1)) others
      in
      let eval x =
        Logic.Expr.eval
          (fun n ->
            if n = input then x
            else List.assoc n env_others)
          expr
      in
      if eval true <> eval false then env_others else search (i + 1)
    end
  in
  search 0

let vdd_of lib =
  match (List.nth lib.Library.entries 0).Library.technology with
  | Library.Cnfet_tech t -> t.Device.Cnfet.vdd
  | Library.Cmos_tech t -> t.Device.Mosfet.vdd

(* The one load check: [arc] (and through it [all_arcs]) and
   [check_loads] refuse a negative load before simulating anything. *)
let check_load ~cell load =
  if load >= 0 then Ok ()
  else
    Core.Diag.failf ~stage:"characterize"
      ~context:[ ("cell", cell); ("load", string_of_int load) ]
      "negative load %d" load

let check_loads ~cell loads =
  if loads = [] then
    Core.Diag.fail ~stage:"characterize" ~context:[ ("cell", cell) ]
      "empty load sweep"
  else
    List.fold_left
      (fun acc l -> Result.bind acc (fun () -> check_load ~cell l))
      (Ok ()) loads

let arc ?variation ~lib (entry : Library.entry) ~input ~load_inv1x =
  let ( let* ) = Result.bind in
  let* () = check_load ~cell:entry.Library.cell_name load_inv1x in
  let vdd = vdd_of lib in
  let period = 2e-9 in
  let net = Circuit.Netlist.create () in
  let vdd_node = Circuit.Netlist.node net "vdd" in
  let vdd_meas = Circuit.Netlist.node net "vdd_meas" in
  Circuit.Netlist.add_vsource net vdd_node (Circuit.Stimulus.dc vdd);
  Circuit.Netlist.add_vsource net vdd_meas (Circuit.Stimulus.dc vdd);
  let out = Circuit.Netlist.node net "out" in
  let in_node = Circuit.Netlist.node net "in" in
  Circuit.Netlist.add_vsource net in_node
    (Circuit.Stimulus.pulse ~period ~rise:(period /. 100.) ~lo:0. ~hi:vdd);
  let side = sensitize entry.Library.fn ~input in
  let side_nodes =
    List.map
      (fun (n, v) ->
        let node = Circuit.Netlist.node net ("side_" ^ n) in
        Circuit.Netlist.add_vsource net node
          (Circuit.Stimulus.dc (if v then vdd else 0.));
        (n, node))
      side
  in
  let inputs = (input, in_node) :: side_nodes in
  Gate_netlist.add_gate net (Library.factory lib) ~fn:entry.Library.fn
    ~drive:entry.Library.width_lambda_base ~prefix:"dut" ~out ~inputs
    ~vdd:vdd_meas;
  (* INV1X loads *)
  let inv = Logic.Cell_fun.inv in
  for k = 1 to load_inv1x do
    let dummy = Circuit.Netlist.node net (Printf.sprintf "load%d" k) in
    Gate_netlist.add_gate net (Library.factory lib) ~fn:inv
      ~drive:Library.base_width_lambda
      ~prefix:(Printf.sprintf "ld%d" k)
      ~out:dummy ~inputs:[ ("A", out) ] ~vdd:vdd_node
  done;
  let config =
    { Circuit.Transient.default_config with Circuit.Transient.t_stop = 3. *. period }
  in
  let r = Circuit.Transient.run ~config net ~probes:[ in_node; out ] in
  let w_in = Circuit.Transient.wave r in_node in
  let w_out = Circuit.Transient.wave r out in
  let level = vdd /. 2. in
  let steady = List.filter (fun (t, _) -> t > period) in
  let in_x = steady (Circuit.Waveform.crossings w_in ~level) in
  let out_x = steady (Circuit.Waveform.crossings w_out ~level) in
  let delays dir =
    List.filter_map
      (fun (ti, d) ->
        if d <> dir then None
        else
          match List.find_opt (fun (to_, _) -> to_ > ti) out_x with
          | Some (to_, _) -> Some (to_ -. ti)
          | None -> None)
      in_x
  in
  let mean = function
    | [] -> nan
    | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  (* the output may follow or invert the pin depending on the cell; rising
     output delays pair with whichever input direction produced them *)
  let d_after dir = mean (delays dir) in
  let d_rise_in = d_after Circuit.Waveform.Rising in
  let d_fall_in = d_after Circuit.Waveform.Falling in
  if Float.is_nan d_rise_in && Float.is_nan d_fall_in then
    Core.Diag.failf ~stage:"characterize"
      ~context:[ ("cell", entry.Library.cell_name); ("pin", input) ]
      "output of %s never switched when toggling %s" entry.Library.cell_name
      input
  else begin
    let energy = Circuit.Transient.energy_from r vdd_meas /. 3. in
    (* The injected sampler applies its slow-corner derate here — the one
       prepared stat set covers every arc of the cell; without a sampler
       the delays pass through untouched (the golden test pins that path
       byte for byte).  Energy is CV^2 work and does not scale with drive
       current, so it is left alone. *)
    let derate =
      match variation with
      | None -> 1.
      | Some (v : Device.Variation.sampler) -> v.Device.Variation.slow_derate
    in
    let rise_delay_s = d_fall_in *. derate
    and fall_delay_s = d_rise_in *. derate in
    Ok
      {
        input;
        load_inv1x;
        rise_delay_s;
        fall_delay_s;
        avg_delay_s =
          mean
            (List.filter
               (fun x -> not (Float.is_nan x))
               [ rise_delay_s; fall_delay_s ]);
        energy_per_cycle_j = energy;
      }
  end

let all_arcs ?variation ~lib entry ~load_inv1x =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc input ->
      let* acc = acc in
      let* a = arc ?variation ~lib entry ~input ~load_inv1x in
      Ok (a :: acc))
    (Ok [])
    (Logic.Expr.inputs entry.Library.fn.Logic.Cell_fun.core)
  |> Result.map List.rev

let all_arcs_exn ?variation ~lib entry ~load_inv1x =
  Core.Diag.ok_exn (all_arcs ?variation ~lib entry ~load_inv1x)

let sweep ?pool ?variation ~lib (entry : Library.entry) ~loads =
  let ( let* ) = Result.bind in
  let* () = check_loads ~cell:entry.Library.cell_name loads in
  let points = Array.of_list loads in
  let at i = all_arcs ?variation ~lib entry ~load_inv1x:points.(i) in
  let results =
    (* every point is a pure function of its load, so pool scheduling
       cannot change the result array — only how fast it fills *)
    match pool with
    | Some pool -> Parallel.Pool.init_array pool (Array.length points) ~f:at
    | None -> Array.init (Array.length points) at
  in
  (* first error in sweep order wins, identical at any pool size *)
  Array.to_seq results |> List.of_seq
  |> List.mapi (fun i r -> Result.map (fun arcs -> (points.(i), arcs)) r)
  |> List.fold_left
       (fun acc r ->
         match (acc, r) with
         | (Error _ as e), _ -> e
         | Ok acc, Ok p -> Ok (p :: acc)
         | Ok _, (Error _ as e) -> e)
       (Ok [])
  |> Result.map List.rev

let worst_delay arcs =
  List.fold_left (fun acc a -> Float.max acc a.avg_delay_s) 0. arcs

let total_energy = function
  | [] -> 0.
  | arcs ->
    List.fold_left (fun acc a -> acc +. a.energy_per_cycle_j) 0. arcs
    /. float_of_int (List.length arcs)
