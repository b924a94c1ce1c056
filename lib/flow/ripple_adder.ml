let rename_instance ~prefix ~net_map (i : Netlist_ir.instance) =
  {
    i with
    Netlist_ir.inst_name = prefix ^ "_" ^ i.Netlist_ir.inst_name;
    output = net_map i.Netlist_ir.output;
    conns = List.map (fun (f, n) -> (f, net_map n)) i.Netlist_ir.conns;
  }

let stage = "ripple_adder"

let check_bits bits =
  if bits < 1 then
    Core.Diag.failf ~stage
      ~context:[ ("bits", string_of_int bits) ]
      "bits must be >= 1, got %d" bits
  else Ok ()

let netlist ~bits =
  match check_bits bits with
  | Error _ as e -> e
  | Ok () ->
  let fa = Full_adder.netlist () in
  let instances =
    List.concat_map
      (fun b ->
        let prefix = Printf.sprintf "fa%d" b in
        let net_map = function
          | "A" -> Printf.sprintf "A%d" b
          | "B" -> Printf.sprintf "B%d" b
          | "CIN" -> if b = 0 then "CIN" else Printf.sprintf "c%d" b
          | "SUM" -> Printf.sprintf "S%d" b
          | "COUT" ->
            if b = bits - 1 then "COUT" else Printf.sprintf "c%d" (b + 1)
          | inner -> prefix ^ "_" ^ inner
        in
        List.map (rename_instance ~prefix ~net_map) fa.Netlist_ir.instances)
      (List.init bits Fun.id)
  in
  Ok
    {
      Netlist_ir.design = Printf.sprintf "ripple%d" bits;
      inputs =
        List.init bits (Printf.sprintf "A%d")
        @ List.init bits (Printf.sprintf "B%d")
        @ [ "CIN" ];
      outputs = List.init bits (Printf.sprintf "S%d") @ [ "COUT" ];
      instances;
    }

let check ~bits =
  let ( let* ) = Result.bind in
  if bits > 6 then
    Core.Diag.failf ~stage
      ~context:[ ("bits", string_of_int bits) ]
      "exhaustive check limited to 6 bits, got %d" bits
  else
    let* n = netlist ~bits in
    (* validate once; the returned evaluator is total across all vectors *)
    let* eval = Netlist_ir.evaluator n in
    let exception Bad of string in
    try
      for a = 0 to (1 lsl bits) - 1 do
        for b = 0 to (1 lsl bits) - 1 do
          for cin = 0 to 1 do
            let env name =
              let bit v k = (v lsr k) land 1 = 1 in
              let index () =
                int_of_string (String.sub name 1 (String.length name - 1))
              in
              if name = "CIN" then cin = 1
              else if name.[0] = 'A' then bit a (index ())
              else bit b (index ())
            in
            let expected = a + b + cin in
            let got_sum =
              List.fold_left
                (fun acc k ->
                  acc
                  lor
                  if eval env (Printf.sprintf "S%d" k) then 1 lsl k else 0)
                0
                (List.init bits Fun.id)
            in
            let got =
              got_sum lor if eval env "COUT" then 1 lsl bits else 0
            in
            if got <> expected then
              raise
                (Bad
                   (Printf.sprintf "%d + %d + %d = %d, adder says %d" a b cin
                      expected got))
          done
        done
      done;
      Ok ()
    with Bad m ->
      Core.Diag.fail ~stage ~context:[ ("bits", string_of_int bits) ] m
