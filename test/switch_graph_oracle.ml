(* The breadth-first reachability evaluator Logic.Switch_graph used before
   union-find replaced it: the reference its property tests compare
   against.  Deliberately naive — it re-filters the live edges and restarts
   the search for every query. *)

open Logic.Switch_graph

let edge_conducts env e =
  let on g =
    match e.polarity with
    | Logic.Network.N_type -> env g
    | Logic.Network.P_type -> not (env g)
  in
  List.for_all on e.gates

let conducting_between t env a b =
  if a = b then true
  else begin
    let live = List.filter (edge_conducts env) (edges t) in
    let visited = Hashtbl.create 16 in
    let rec bfs = function
      | [] -> false
      | n :: rest ->
        if n = b then true
        else if Hashtbl.mem visited n then bfs rest
        else begin
          Hashtbl.add visited n ();
          let next =
            List.filter_map
              (fun e ->
                if e.src = n then Some e.dst
                else if e.dst = n then Some e.src
                else None)
              live
          in
          bfs (next @ rest)
        end
    in
    bfs [ a ]
  end

let output_drive t env =
  match (conducting_between t env Out Vdd, conducting_between t env Out Gnd) with
  | true, false -> High
  | false, true -> Low
  | true, true -> Fight
  | false, false -> Floating

let env_of_row inputs row name =
  let rec go k = function
    | [] -> invalid_arg ("Switch_graph_oracle: unknown input " ^ name)
    | x :: rest -> if x = name then (row lsr k) land 1 = 1 else go (k + 1) rest
  in
  go 0 inputs

let drive_table t ~inputs =
  Array.init
    (1 lsl List.length inputs)
    (fun row -> output_drive t (env_of_row inputs row))

let truth_table t ~inputs =
  Logic.Truth.of_fun ~inputs (fun env -> value_of_drive (output_drive t env))
