(* Logic layer tests: expressions, truth tables, series/parallel networks
   and the switch-level conduction graph. *)

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* random positive expressions over up to 4 inputs *)
let positive_expr_gen =
  let open QCheck.Gen in
  let var = oneofl [ "A"; "B"; "C"; "D" ] >|= Logic.Expr.var in
  fix
    (fun self depth ->
      if depth <= 0 then var
      else
        frequency
          [
            (2, var);
            ( 2,
              let* n = int_range 2 3 in
              let* es = list_size (return n) (self (depth - 1)) in
              return (Logic.Expr.and_list es) );
            ( 2,
              let* n = int_range 2 3 in
              let* es = list_size (return n) (self (depth - 1)) in
              return (Logic.Expr.or_list es) );
          ])
    2

let positive_expr_arb =
  QCheck.make ~print:Logic.Expr.to_string positive_expr_gen

(* random general expressions (with negation) *)
let expr_gen =
  let open QCheck.Gen in
  let var = oneofl [ "A"; "B"; "C" ] >|= Logic.Expr.var in
  fix
    (fun self depth ->
      if depth <= 0 then oneof [ var; map (fun b -> Logic.Expr.Const b) bool ]
      else
        frequency
          [
            (2, var);
            (1, map (fun b -> Logic.Expr.Const b) bool);
            (2, map Logic.Expr.not_ (self (depth - 1)));
            ( 2,
              let* es = list_size (int_range 1 3) (self (depth - 1)) in
              return (Logic.Expr.and_list es) );
            ( 2,
              let* es = list_size (int_range 1 3) (self (depth - 1)) in
              return (Logic.Expr.or_list es) );
          ])
    3

let expr_arb = QCheck.make ~print:Logic.Expr.to_string expr_gen

let envs_of inputs =
  List.init (1 lsl List.length inputs) (fun i name ->
      let rec idx k = function
        | [] -> invalid_arg "env"
        | n :: rest -> if n = name then k else idx (k + 1) rest
      in
      (i lsr idx 0 inputs) land 1 = 1)

let expr_eval_basics () =
  let open Logic.Expr in
  let e = And [ Var "A"; Or [ Var "B"; Not (Var "C") ] ] in
  let env = function "A" -> true | "B" -> false | "C" -> false | _ -> false in
  checkb "eval" true (eval env e);
  checkb "not" false (eval env (Not e))

let expr_inputs_order () =
  let open Logic.Expr in
  let e = Or [ Var "B"; And [ Var "A"; Var "B" ]; Var "C" ] in
  Alcotest.(check (list string)) "first-appearance order" [ "B"; "A"; "C" ]
    (inputs e)

let expr_simplify_cases () =
  let open Logic.Expr in
  checkb "and absorbs false" true
    (simplify (And [ Var "A"; Const false ]) = Const false);
  checkb "or absorbs true" true
    (simplify (Or [ Var "A"; Const true ]) = Const true);
  checkb "and drops true" true (simplify (And [ Var "A"; Const true ]) = Var "A");
  checkb "double negation" true (simplify (Not (Not (Var "A"))) = Var "A");
  checkb "flattening" true
    (simplify (And [ Var "A"; And [ Var "B"; Var "C" ] ])
    = And [ Var "A"; Var "B"; Var "C" ])

let simplify_preserves_semantics =
  QCheck.Test.make ~name:"simplify preserves evaluation" ~count:300 expr_arb
    (fun e ->
      let inputs = Logic.Expr.inputs e in
      let simplified = Logic.Expr.simplify e in
      List.for_all
        (fun env -> Logic.Expr.eval env e = Logic.Expr.eval env simplified)
        (envs_of inputs))

let is_positive_check () =
  let open Logic.Expr in
  checkb "var" true (is_positive (Var "A"));
  checkb "not" false (is_positive (Not (Var "A")));
  checkb "const" false (is_positive (Const true));
  checkb "empty and" false (is_positive (And []))

let truth_basics () =
  let tt = Logic.Truth.of_expr Logic.Expr.(And [ Var "A"; Var "B" ]) in
  check_int "rows" 4 (Logic.Truth.size tt);
  checkb "row 3 true" true (Logic.Truth.value tt 3 = Logic.Truth.T);
  checkb "row 1 false" true (Logic.Truth.value tt 1 = Logic.Truth.F);
  checkb "defined" true (Logic.Truth.defined_everywhere tt)

let truth_equal_and_mismatch () =
  let a = Logic.Truth.of_expr Logic.Expr.(And [ Var "A"; Var "B" ]) in
  let b = Logic.Truth.of_expr Logic.Expr.(Or [ Var "A"; Var "B" ]) in
  checkb "not equal" false (Logic.Truth.equal a b);
  check_int "mismatch rows" 2 (List.length (Logic.Truth.mismatches ~reference:a b))

let truth_too_many_inputs () =
  let inputs = List.init 17 (Printf.sprintf "x%d") in
  Alcotest.check_raises "too many"
    (Invalid_argument "Truth.of_fun: too many inputs") (fun () ->
      ignore (Logic.Truth.of_fun ~inputs (fun _ -> Logic.Truth.F)))

let network_of_expr_structure () =
  let net = Logic.Network.of_expr Logic.Expr.(And [ Var "A"; Var "B" ]) in
  checkb "series" true
    (net = Logic.Network.Series [ Logic.Network.Device "A"; Logic.Network.Device "B" ]);
  Alcotest.check_raises "rejects negation"
    (Invalid_argument "Network.of_expr: expression is not positive") (fun () ->
      ignore (Logic.Network.of_expr Logic.Expr.(Not (Var "A"))))

let network_dual_involution =
  QCheck.Test.make ~name:"dual is an involution" ~count:200 positive_expr_arb
    (fun e ->
      let net = Logic.Network.of_expr (Logic.Expr.simplify e) in
      Logic.Network.dual (Logic.Network.dual net) = net)

let network_conduction_matches_expr =
  QCheck.Test.make ~name:"n-type conduction follows the expression"
    ~count:200 positive_expr_arb (fun e ->
      let e = Logic.Expr.simplify e in
      match e with
      | Logic.Expr.Const _ -> true
      | _ ->
        let net = Logic.Network.of_expr e in
        let inputs = Logic.Expr.inputs e in
        List.for_all
          (fun env ->
            Logic.Network.conducts Logic.Network.N_type env net
            = Logic.Expr.eval env e)
          (envs_of inputs))

let pun_pdn_complementary =
  QCheck.Test.make ~name:"PUN/PDN of any positive expression are complementary"
    ~count:200 positive_expr_arb (fun e ->
      let e = Logic.Expr.simplify e in
      match e with
      | Logic.Expr.Const _ -> true
      | _ ->
        let pdn = Logic.Network.of_expr e in
        let pun = Logic.Network.dual pdn in
        Logic.Network.validate_complementary ~pdn ~pun = Ok ())

let network_depth () =
  let fn = Logic.Cell_fun.nand 3 in
  let pdn = Logic.Network.of_expr fn.Logic.Cell_fun.core in
  check_int "NAND3 stack" 3 (Logic.Network.depth pdn);
  check_int "NAND3 PUN stack" 1 (Logic.Network.depth (Logic.Network.dual pdn))

let catalog_complementary () =
  List.iter
    (fun fn ->
      let pdn = Logic.Network.of_expr fn.Logic.Cell_fun.core in
      let pun = Logic.Network.dual pdn in
      match Logic.Network.validate_complementary ~pdn ~pun with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" fn.Logic.Cell_fun.name e)
    Logic.Cell_fun.all

let switch_graph_implements_catalog () =
  List.iter
    (fun fn ->
      let g = Logic.Switch_graph.create () in
      let pdn = Logic.Network.of_expr fn.Logic.Cell_fun.core in
      Logic.Switch_graph.add_network g ~polarity:Logic.Network.N_type
        ~src:Logic.Switch_graph.Gnd ~dst:Logic.Switch_graph.Out pdn;
      Logic.Switch_graph.add_network g ~polarity:Logic.Network.P_type
        ~src:Logic.Switch_graph.Vdd ~dst:Logic.Switch_graph.Out
        (Logic.Network.dual pdn);
      checkb fn.Logic.Cell_fun.name true
        (Logic.Switch_graph.implements g fn.Logic.Cell_fun.core))
    Logic.Cell_fun.all

let switch_graph_short_gives_x () =
  let g = Logic.Switch_graph.create () in
  Logic.Switch_graph.add_edge g
    { Logic.Switch_graph.src = Logic.Switch_graph.Vdd;
      dst = Logic.Switch_graph.Out; gates = []; polarity = Logic.Network.P_type };
  Logic.Switch_graph.add_edge g
    { Logic.Switch_graph.src = Logic.Switch_graph.Gnd;
      dst = Logic.Switch_graph.Out; gates = [ "A" ];
      polarity = Logic.Network.N_type };
  let tt = Logic.Switch_graph.truth_table g ~inputs:[ "A" ] in
  checkb "A=0 pulls high" true (Logic.Truth.value tt 0 = Logic.Truth.T);
  checkb "A=1 fights" true (Logic.Truth.value tt 1 = Logic.Truth.X)

let switch_graph_floating_gives_x () =
  let g = Logic.Switch_graph.create () in
  Logic.Switch_graph.add_edge g
    { Logic.Switch_graph.src = Logic.Switch_graph.Vdd;
      dst = Logic.Switch_graph.Out; gates = [ "A" ];
      polarity = Logic.Network.P_type };
  let tt = Logic.Switch_graph.truth_table g ~inputs:[ "A" ] in
  checkb "A=1 floats" true (Logic.Truth.value tt 1 = Logic.Truth.X)

(* Random switch graphs against the BFS oracle: 0-4 inputs, 0-8 edges
   among Vdd, Gnd, Out and internal nodes (self-loops and parallel edges
   arise freely), each gated by 0-3 of the inputs (repeats allowed) of
   either polarity, plus one input row to evaluate the [env] entry
   points at. *)
let switch_graph_case =
  let open QCheck.Gen in
  let gen =
    let* n_inputs = int_range 0 4 in
    let inputs = List.filteri (fun k _ -> k < n_inputs) [ "A"; "B"; "C"; "D" ] in
    let node =
      oneofl
        Logic.Switch_graph.
          [ Vdd; Gnd; Out; Internal 0; Internal 1; Internal 2; Internal 10_000 ]
    in
    let edge =
      let* src = node in
      let* dst = node in
      let* gates =
        if inputs = [] then return [] else list_size (int_range 0 3) (oneofl inputs)
      in
      let* polarity = oneofl Logic.Network.[ N_type; P_type ] in
      return { Logic.Switch_graph.src; dst; gates; polarity }
    in
    let* edges = list_size (int_range 0 8) edge in
    let* row = int_bound ((1 lsl n_inputs) - 1) in
    return (inputs, edges, row)
  in
  let node_string = function
    | Logic.Switch_graph.Vdd -> "Vdd"
    | Gnd -> "Gnd"
    | Out -> "Out"
    | Internal i -> Printf.sprintf "n%d" i
  in
  let print (inputs, edges, row) =
    Printf.sprintf "inputs [%s], row %d, edges %s" (String.concat " " inputs) row
      (String.concat "; "
         (List.map
            (fun (e : Logic.Switch_graph.edge) ->
              Printf.sprintf "%s-%s %s[%s]" (node_string e.src)
                (node_string e.dst)
                (match e.polarity with
                | Logic.Network.N_type -> "n"
                | Logic.Network.P_type -> "p")
                (String.concat " " e.gates))
            edges))
  in
  QCheck.make ~print gen

let switch_graph_matches_bfs_oracle =
  QCheck.Test.make ~name:"switch graph union-find matches the BFS oracle"
    ~count:1000 switch_graph_case (fun (inputs, edges, row) ->
      let g = Logic.Switch_graph.create () in
      List.iter (Logic.Switch_graph.add_edge g) edges;
      let env = Switch_graph_oracle.env_of_row inputs row in
      let nodes =
        Logic.Switch_graph.[ Vdd; Gnd; Out; Internal 0; Internal 1; Internal 7 ]
      in
      Logic.Switch_graph.drive_table g ~inputs
      = Switch_graph_oracle.drive_table g ~inputs
      && Logic.Truth.equal
           (Logic.Switch_graph.truth_table g ~inputs)
           (Switch_graph_oracle.truth_table g ~inputs)
      && Logic.Switch_graph.output_drive g env
         = Switch_graph_oracle.output_drive g env
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 Logic.Switch_graph.conducting_between g env a b
                 = Switch_graph_oracle.conducting_between g env a b)
               nodes)
           nodes)

(* A gate outside [inputs] is a malformed graph, refused before any row
   is evaluated — even when no row could ever reach the edge. *)
let switch_graph_unknown_gate () =
  let g = Logic.Switch_graph.create () in
  Logic.Switch_graph.add_edge g
    { Logic.Switch_graph.src = Logic.Switch_graph.Internal 3;
      dst = Logic.Switch_graph.Internal 4; gates = [ "A"; "Z" ];
      polarity = Logic.Network.N_type };
  let refused = Invalid_argument "Switch_graph: gate Z is not among the inputs" in
  Alcotest.check_raises "drive_table" refused (fun () ->
      ignore (Logic.Switch_graph.drive_table g ~inputs:[ "A" ]));
  Alcotest.check_raises "truth_table" refused (fun () ->
      ignore (Logic.Switch_graph.truth_table g ~inputs:[ "A" ]));
  (* the env entry points evaluate the graph's own gates: nothing to refuse *)
  checkb "output_drive floats" true
    (Logic.Switch_graph.output_drive g (fun _ -> true)
    = Logic.Switch_graph.Floating)

let cell_fun_catalog () =
  check_int "catalog size" 18 (List.length Logic.Cell_fun.all);
  let nand3 = Logic.Cell_fun.find "nand3" in
  check_int "NAND3 fan-in" 3 nand3.Logic.Cell_fun.fan_in;
  let tt = Logic.Cell_fun.truth nand3 in
  checkb "111 -> 0" true (Logic.Truth.value tt 7 = Logic.Truth.F);
  checkb "000 -> 1" true (Logic.Truth.value tt 0 = Logic.Truth.T);
  checkb "nand 1 is inverter" true (Logic.Cell_fun.nand 1 == Logic.Cell_fun.inv)

let aoi21_truth () =
  let fn = Logic.Cell_fun.aoi21 in
  let tt = Logic.Cell_fun.truth fn in
  (* inputs in order A1 A2 B *)
  let value a1 a2 b =
    let i = (if a1 then 1 else 0) lor (if a2 then 2 else 0) lor if b then 4 else 0 in
    Logic.Truth.value tt i
  in
  checkb "A1A2 pulls low" true (value true true false = Logic.Truth.F);
  checkb "B pulls low" true (value false false true = Logic.Truth.F);
  checkb "idle pulls high" true (value true false false = Logic.Truth.T)

(* XOR2/MUX2 are negative-unate single-stage cells over complemented input
   pins: the truth table is correct only on the consistent half of the
   input space where AN = A', BN = B', SN = S'. *)
let complemented_pin_cells () =
  let value fn assigns =
    let inputs = Logic.Expr.inputs fn.Logic.Cell_fun.core in
    let i =
      List.fold_left
        (fun acc (n, v) ->
          match
            List.mapi (fun k x -> (x, k)) inputs |> List.assoc_opt n
          with
          | Some k when v -> acc lor (1 lsl k)
          | _ -> acc)
        0 assigns
    in
    Logic.Truth.value (Logic.Cell_fun.truth fn) i
  in
  List.iter
    (fun (a, b) ->
      let got =
        value Logic.Cell_fun.xor2
          [ ("A", a); ("B", b); ("AN", not a); ("BN", not b) ]
      in
      let want = if a <> b then Logic.Truth.T else Logic.Truth.F in
      checkb (Printf.sprintf "xor2 %b %b" a b) true (got = want))
    [ (false, false); (false, true); (true, false); (true, true) ];
  List.iter
    (fun (s, a, b) ->
      let got =
        value Logic.Cell_fun.mux2
          [ ("S", s); ("SN", not s); ("AN", not a); ("BN", not b) ]
      in
      let want = if (if s then a else b) then Logic.Truth.T else Logic.Truth.F in
      checkb (Printf.sprintf "mux2 %b %b %b" s a b) true (got = want))
    [
      (false, false, false); (false, false, true); (false, true, false);
      (false, true, true); (true, false, false); (true, false, true);
      (true, true, false); (true, true, true);
    ]

let suite =
  [
    Alcotest.test_case "expr eval" `Quick expr_eval_basics;
    Alcotest.test_case "expr inputs order" `Quick expr_inputs_order;
    Alcotest.test_case "expr simplify cases" `Quick expr_simplify_cases;
    Alcotest.test_case "is_positive" `Quick is_positive_check;
    Alcotest.test_case "truth basics" `Quick truth_basics;
    Alcotest.test_case "truth equal/mismatch" `Quick truth_equal_and_mismatch;
    Alcotest.test_case "truth input limit" `Quick truth_too_many_inputs;
    Alcotest.test_case "network structure" `Quick network_of_expr_structure;
    Alcotest.test_case "network depth" `Quick network_depth;
    Alcotest.test_case "catalog complementary" `Quick catalog_complementary;
    Alcotest.test_case "switch graph implements catalog" `Quick
      switch_graph_implements_catalog;
    Alcotest.test_case "switch graph short -> X" `Quick switch_graph_short_gives_x;
    Alcotest.test_case "switch graph float -> X" `Quick
      switch_graph_floating_gives_x;
    Alcotest.test_case "switch graph unknown gate" `Quick
      switch_graph_unknown_gate;
    Alcotest.test_case "cell catalog" `Quick cell_fun_catalog;
    Alcotest.test_case "xor2/mux2 complemented pins" `Quick
      complemented_pin_cells;
    Alcotest.test_case "AOI21 truth" `Quick aoi21_truth;
    QCheck_alcotest.to_alcotest simplify_preserves_semantics;
    QCheck_alcotest.to_alcotest network_dual_involution;
    QCheck_alcotest.to_alcotest network_conduction_matches_expr;
    QCheck_alcotest.to_alcotest pun_pdn_complementary;
    QCheck_alcotest.to_alcotest switch_graph_matches_bfs_oracle;
  ]
