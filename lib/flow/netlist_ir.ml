type instance = {
  inst_name : string;
  cell : string;
  drive : int;
  output : string;
  conns : (string * string) list;
}

type t = {
  design : string;
  inputs : string list;
  outputs : string list;
  instances : instance list;
}

let stage = "netlist"

(* Hash-based driver/input lookup for evaluation.  The netlist itself
   stays a plain list IR; these tables are rebuilt per call so the IR
   needs no invalidation logic, and they are what keeps evaluation
   near-linear at 10k+ instances. *)
let driver_table t =
  let tbl = Hashtbl.create (List.length t.instances) in
  (* first driver wins, matching [List.assoc] on the instance list *)
  List.iter
    (fun i -> if not (Hashtbl.mem tbl i.output) then Hashtbl.add tbl i.output i)
    t.instances;
  tbl

let input_set t =
  let tbl = Hashtbl.create (List.length t.inputs) in
  List.iter (fun n -> Hashtbl.replace tbl n ()) t.inputs;
  tbl

(* Validation hashes each net name once: design inputs and instance
   outputs get ids first, so afterwards a net is primary or driven
   exactly when it has an id, and the later checks run over arrays
   indexed by net id or instance position.  The checks run in a fixed
   order and the first that fails names one violation: the smallest net
   driven twice, else the first found scanning the instances (and their
   pins) in order. *)
let validate t =
  let ( let* ) = Result.bind in
  let insts = Array.of_list t.instances in
  let n = Array.length insts in
  let cap = List.length t.inputs + n in
  let ids = Hashtbl.create cap and names = Array.make cap "" in
  let intern net =
    match Hashtbl.find_opt ids net with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids net id;
      names.(id) <- net;
      id
  in
  let is_input = Array.make cap false in
  List.iter (fun net -> is_input.(intern net) <- true) t.inputs;
  (* the instance driving each net, and the smallest net driven twice *)
  let driver = Array.make cap (-1) and dup = ref None in
  Array.iteri
    (fun k i ->
      let id = intern i.output in
      if driver.(id) < 0 then driver.(id) <- k
      else
        match !dup with
        | Some d when String.compare d i.output <= 0 -> ()
        | _ -> dup := Some i.output)
    insts;
  let* () =
    match !dup with
    | Some net ->
      Core.Diag.failf ~stage
        ~context:[ ("net", net) ]
        "net %s has multiple drivers" net
    | None -> Ok ()
  in
  (* the first instance, in order, for which [check] fails *)
  let rec each check k =
    if k = n then Ok ()
    else
      let* () = check k insts.(k) in
      each check (k + 1)
  in
  (* each instance's fan-in as net ids, in pin order *)
  let fanin = Array.make n [] in
  let rec read = function
    | [] -> Ok []
    | (_, net) :: rest -> (
      match Hashtbl.find_opt ids net with
      | None -> Error net
      | Some id -> Result.map (List.cons id) (read rest))
  in
  let* () =
    each
      (fun k i ->
        match read i.conns with
        | Ok fan ->
          fanin.(k) <- fan;
          Ok ()
        | Error net ->
          Core.Diag.failf ~stage
            ~context:[ ("instance", i.inst_name); ("net", net) ]
            "instance %s reads undriven net %s" i.inst_name net)
      0
  in
  let* () =
    match List.find_opt (fun o -> not (Hashtbl.mem ids o)) t.outputs with
    | Some o ->
      Core.Diag.failf ~stage
        ~context:[ ("output", o) ]
        "design output %s is undriven" o
    | None -> Ok ()
  in
  (* the formal inputs of each instance's cell, looked up once per
     distinct cell name; [None] for an unknown cell *)
  let pin_lists = Hashtbl.create 16 in
  let pins =
    Array.map
      (fun i ->
        match Hashtbl.find_opt pin_lists i.cell with
        | Some p -> p
        | None ->
          let p =
            Option.map
              (fun fn -> Logic.Expr.inputs fn.Logic.Cell_fun.core)
              (Logic.Cell_fun.find_opt i.cell)
          in
          Hashtbl.add pin_lists i.cell p;
          p)
      insts
  in
  let* () =
    each
      (fun k i ->
        if Option.is_some pins.(k) then Ok ()
        else
          Core.Diag.failf ~stage
            ~context:[ ("instance", i.inst_name); ("cell", i.cell) ]
            "instance %s uses unknown cell %s" i.inst_name i.cell)
      0
  in
  let* () =
    each
      (fun k i ->
        match
          List.find_opt
            (fun pin -> not (List.mem_assoc pin i.conns))
            (Option.get pins.(k))
        with
        | Some pin ->
          Core.Diag.failf ~stage
            ~context:[ ("instance", i.inst_name); ("pin", pin) ]
            "instance %s leaves pin %s unbound" i.inst_name pin
        | None -> Ok ())
      0
  in
  (* depth-first search from each design output in order, through each
     instance's pins in order, stopping at primary inputs; a net whose
     whole fan-in cone proved acyclic is not searched again, which
     cannot change the net a cycle is reported on *)
  let fresh = 0 and on_path = 1 and acyclic = 2 in
  let state = Array.make cap fresh in
  let rec visit id =
    if is_input.(id) || state.(id) = acyclic || driver.(id) < 0 then Ok ()
    else if state.(id) = on_path then Error id
    else begin
      state.(id) <- on_path;
      let r = visit_all fanin.(driver.(id)) in
      state.(id) <- (if Result.is_ok r then acyclic else fresh);
      r
    end
  and visit_all = function
    | [] -> Ok ()
    | id :: rest ->
      let* () = visit id in
      visit_all rest
  in
  match visit_all (List.map (Hashtbl.find ids) t.outputs) with
  | Ok () -> Ok ()
  | Error id ->
    Core.Diag.failf ~stage
      ~context:[ ("net", names.(id)) ]
      "combinational cycle through net %s" names.(id)

(* Evaluation against an already-validated netlist.  Validation guarantees
   every instance input is driven or primary and every cell name resolves,
   so the only open case is a top-level query for a net with no driver —
   that reads from [env], like a primary input. *)
let eval_validated t =
  let table = driver_table t in
  let inputs = input_set t in
  fun env net ->
    let memo = Hashtbl.create 32 in
    let rec value net =
      match Hashtbl.find_opt memo net with
      | Some v -> v
      | None ->
        let v =
          if Hashtbl.mem inputs net then env net
          else
            match Hashtbl.find_opt table net with
            | None -> env net
            | Some i ->
              let fn = Logic.Cell_fun.find i.cell in
              let inner name =
                match List.assoc_opt name i.conns with
                | Some n -> value n
                | None -> env name
              in
              Logic.Expr.eval inner (Logic.Cell_fun.output_expr fn)
        in
        Hashtbl.replace memo net v;
        v
    in
    value net

let evaluator t =
  match validate t with
  | Error _ as e -> e
  | Ok () -> Ok (eval_validated t)

let eval t env net =
  match evaluator t with
  | Error _ as e -> e
  | Ok f -> Ok (f env net)

let truth_of_output t ~output =
  match evaluator t with
  | Error _ as e -> e
  | Ok f ->
    let known =
      List.mem output t.inputs
      || List.exists (fun i -> i.output = output) t.instances
    in
    if not known then
      Core.Diag.failf ~stage
        ~context:[ ("output", output); ("design", t.design) ]
        "no net %s in design %s" output t.design
    else
      Ok
        (Logic.Truth.of_fun ~inputs:t.inputs (fun env ->
             if f env output then Logic.Truth.T else Logic.Truth.F))

let stats t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun i ->
      let key = Printf.sprintf "%s_%dX" i.cell i.drive in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    t.instances;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort Stdlib.compare

let to_string t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "design %s\n" t.design);
  Buffer.add_string b ("input " ^ String.concat " " t.inputs ^ "\n");
  Buffer.add_string b ("output " ^ String.concat " " t.outputs ^ "\n");
  List.iter
    (fun i ->
      Buffer.add_string b
        (Printf.sprintf "inst %s %s %d out=%s%s\n" i.inst_name i.cell i.drive
           i.output
           (String.concat ""
              (List.map
                 (fun (f, n) -> Printf.sprintf " %s=%s" (String.lowercase_ascii f) n)
                 i.conns))))
    t.instances;
  Buffer.contents b

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  let design = ref "top" and inputs = ref [] and outputs = ref [] in
  let instances = ref [] in
  let exception Bad of string in
  try
    List.iter
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (fun w -> w <> "") with
        | "design" :: [ n ] -> design := n
        | "input" :: ns -> inputs := !inputs @ ns
        | "output" :: ns -> outputs := !outputs @ ns
        | "inst" :: name :: cell :: drive :: pins ->
          let drive =
            match int_of_string_opt drive with
            | Some d -> d
            | None -> raise (Bad ("bad drive in: " ^ line))
          in
          let parse_pin p =
            match String.index_opt p '=' with
            | Some i ->
              ( String.uppercase_ascii (String.sub p 0 i),
                String.sub p (i + 1) (String.length p - i - 1) )
            | None -> raise (Bad ("bad pin binding " ^ p))
          in
          let bindings = List.map parse_pin pins in
          let output =
            match List.assoc_opt "OUT" bindings with
            | Some n -> n
            | None -> raise (Bad ("missing out= in: " ^ line))
          in
          let conns = List.remove_assoc "OUT" bindings in
          instances :=
            { inst_name = name; cell = String.uppercase_ascii cell; drive;
              output; conns }
            :: !instances
        | _ -> raise (Bad ("unrecognized line: " ^ line)))
      lines;
    Ok
      {
        design = !design;
        inputs = !inputs;
        outputs = !outputs;
        instances = List.rev !instances;
      }
  with Bad msg -> Core.Diag.fail ~stage:"netlist-parse" msg

let digest t = Digest.to_hex (Digest.string (to_string t))
