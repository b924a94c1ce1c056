type config = {
  t_stop : float;
  dt_min : float;
  dt_max : float;
  dv_max : float;
  c_min : float;
}

let default_config =
  {
    t_stop = 2e-9;
    dt_min = 1e-15;
    dt_max = 5e-12;
    dv_max = 5e-3;
    c_min = 1e-18;
  }

type result = {
  waves : (Netlist.node * Waveform.t) list;
  supply_energy : (Netlist.node * float) list;
  steps : int;
}

let run ?(config = default_config) net ~probes =
  let n = Netlist.node_count net in
  let v = Array.make n 0. in
  let cap = Array.init n (fun i -> Netlist.cap_of net i +. config.c_min) in
  let forced = Array.of_list (Netlist.forced net) in
  let is_forced = Array.make n false in
  Array.iter (fun (node, _) -> is_forced.(node) <- true) forced;
  is_forced.(Netlist.gnd) <- true;
  let free =
    Array.of_list
      (List.filter (fun i -> not is_forced.(i)) (List.init (n - 1) succ))
  in
  let kernel =
    Device.Model.kernel
      (List.map
         (fun (d : Netlist.device_inst) ->
           (d.Netlist.model, d.Netlist.g, d.Netlist.d, d.Netlist.s))
         (Netlist.devices net))
  in
  let current = Array.make n 0. in
  let supply = Array.make n 0. in
  (* initial condition from sources at t = 0 *)
  Array.iter (fun (node, w) -> v.(node) <- w 0.) forced;
  let waves = List.map (fun p -> (p, Waveform.create ())) probes in
  let probed = Array.of_list waves in
  (* The loop below allocates only the boxed floats it hands to the
     source closures and to [Waveform.push]: refs stay local, the device
     currents come from one [Device.Model.add_currents] call and every
     per-node pass is a [for] loop over a precomputed node array. *)
  let record t =
    for k = 0 to Array.length probed - 1 do
      let p, w = probed.(k) in
      Waveform.push w t v.(p)
    done
  in
  let t = ref 0. in
  let steps = ref 0 in
  record 0.;
  while !t < config.t_stop do
    Array.fill current 0 n 0.;
    Device.Model.add_currents kernel v current;
    (* choose dt so no free node moves more than dv_max *)
    let dt = ref config.dt_max in
    for k = 0 to Array.length free - 1 do
      let i = free.(k) in
      let slew = Float.abs current.(i) /. cap.(i) in
      if slew > 0. then begin
        (* Stdlib.min without its polymorphic compare: Float.min breaks
           ties and NaNs differently *)
        let limit = config.dv_max /. slew in
        dt := if !dt <= limit then !dt else limit
      end
    done;
    let dt = Float.max config.dt_min !dt in
    let dt = Float.min dt (config.t_stop -. !t) in
    for k = 0 to Array.length free - 1 do
      let i = free.(k) in
      v.(i) <- v.(i) +. (dt *. current.(i) /. cap.(i));
      (* numerical guard: keep voltages in a physical window *)
      if v.(i) < -0.5 then v.(i) <- -0.5;
      if v.(i) > 2.0 then v.(i) <- 2.0
    done;
    (* energy bookkeeping: a source delivers the current the devices sink
       from it (its node voltage is held, so the source supplies -I_in) *)
    for k = 0 to Array.length forced - 1 do
      let node, _ = forced.(k) in
      supply.(node) <- supply.(node) +. (-.current.(node) *. v.(node) *. dt)
    done;
    t := !t +. dt;
    let now = !t in
    for k = 0 to Array.length forced - 1 do
      let node, w = forced.(k) in
      v.(node) <- w now
    done;
    incr steps;
    record now
  done;
  {
    waves;
    supply_energy =
      Array.to_list (Array.map (fun (node, _) -> (node, supply.(node))) forced);
    steps = !steps;
  }

let wave r node = List.assoc node r.waves

let energy_from r node =
  match List.assoc_opt node r.supply_energy with Some e -> e | None -> 0.
