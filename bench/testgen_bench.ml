(* Testgen throughput: the diagnosis pass costs strictly more per trial
   than the injector (drive table + repair-cost search per failing
   trial), so track trials/sec at 1 and N domains plus the dictionary
   shape, for both schemes.  Deterministic content, wall-clock timing. *)

let run () =
  let rules = Pdk.Rules.default in
  let trials = 2000 in
  let config =
    {
      Testgen.Campaign.default_config with
      Testgen.Campaign.fault =
        {
          Fault.Injector.default_config with
          Fault.Injector.trials;
          seed = 42;
        };
    }
  in
  Printf.printf "# testgen campaign: vulnerable NAND2, %d trials\n" trials;
  List.iter
    (fun scheme ->
      let cell =
        Layout.Cell.make_exn ~rules
          ~fn:(Logic.Cell_fun.nand 2)
          ~style:Layout.Cell.Vulnerable ~scheme ~drive:4
      in
      List.iter
        (fun domains ->
          let t0 = Unix.gettimeofday () in
          let r = Testgen.Campaign.run ~domains config cell in
          let dt = Unix.gettimeofday () -. t0 in
          let d = r.Testgen.Campaign.dictionary in
          Printf.printf
            "scheme=%s domains=%d  %7.0f trials/s  failing=%d classes=%d \
             vectors=%d\n%!"
            (Layout.Cell.scheme_string r.Testgen.Campaign.scheme)
            domains
            (float_of_int trials /. dt)
            d.Testgen.Dictionary.failing
            (List.length d.Testgen.Dictionary.classes)
            (List.length r.Testgen.Campaign.vectors.Testgen.Vectors.vectors))
        [ 1; 4 ])
    [ Layout.Cell.Scheme1; Layout.Cell.Scheme2 ]
