let deck ~title net =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "* %s\n" title);
  Buffer.add_string b "* generated by cnfet-dk (DATE'09 reproduction)\n";
  let name n = Netlist.name_of net n in
  (* sources *)
  List.iteri
    (fun i (node, w) ->
      Buffer.add_string b
        (Printf.sprintf "V%d %s 0 PWL(0 %g 1n %g)\n" (i + 1) (name node)
           (w 0.) (w 1e-9)))
    (Netlist.forced net);
  (* devices *)
  List.iteri
    (fun i (d : Netlist.device_inst) ->
      let m = d.Netlist.model in
      let pol =
        match m.Device.Model.polarity with
        | Device.Model.Nfet -> "N"
        | Device.Model.Pfet -> "P"
      in
      Buffer.add_string b
        (Printf.sprintf "X%d %s %s %s %s_%s * cg=%.3gf cd=%.3gf ion=%.3gu\n"
           (i + 1) (name d.Netlist.d) (name d.Netlist.g) (name d.Netlist.s)
           m.Device.Model.name pol
           (m.Device.Model.c_gate *. 1e15)
           (m.Device.Model.c_drain *. 1e15)
           (Device.Model.i_d m ~vgs:1.0 ~vds:1.0 *. 1e6)))
    (Netlist.devices net);
  (* total node capacitances *)
  for n = 1 to Netlist.node_count net - 1 do
    let c = Netlist.cap_of net n in
    if c > 0. && not (Netlist.is_forced net n) then
      Buffer.add_string b
        (Printf.sprintf "C%d %s 0 %.4gf\n" n (name n) (c *. 1e15))
  done;
  Buffer.add_string b ".tran 1p 2n\n.end\n";
  Buffer.contents b

let write_file path ~title net =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (deck ~title net))
