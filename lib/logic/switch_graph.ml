type node = Vdd | Gnd | Out | Internal of int

type edge = {
  src : node;
  dst : node;
  gates : string list;
  polarity : Network.polarity;
}

type t = { mutable edges : edge list; mutable next_internal : int }

let create () = { edges = []; next_internal = 0 }
let add_edge t e = t.edges <- e :: t.edges
let edges t = List.rev t.edges

let fresh_internal t =
  let n = Internal t.next_internal in
  t.next_internal <- t.next_internal + 1;
  n

(* Expansion keeps series chains of plain devices as a single edge (one
   series gate set) and breaks at parallel branches with internal nodes —
   mirroring how diffusion strips are shared in a layout. *)
let rec add_network t ~polarity ~src ~dst net =
  match net with
  | Network.Device g ->
    add_edge t { src; dst; gates = [ g ]; polarity }
  | Network.Parallel branches ->
    List.iter (fun b -> add_network t ~polarity ~src ~dst b) branches
  | Network.Series parts ->
    let rec chain src = function
      | [] -> ()
      | [ last ] -> add_network t ~polarity ~src ~dst last
      | part :: rest ->
        (* merge consecutive plain devices into one edge *)
        let mid = fresh_internal t in
        add_network t ~polarity ~src ~dst:mid part;
        chain mid rest
    in
    (match all_devices parts with
    | Some gates -> add_edge t { src; dst; gates; polarity }
    | None -> chain src parts)

and all_devices parts =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Network.Device g :: rest -> go (g :: acc) rest
    | (Network.Series _ | Network.Parallel _) :: _ -> None
  in
  go [] parts

type drive = High | Low | Fight | Floating

(* Evaluation runs on a compiled form of the edges: nodes renumbered
   densely (Vdd 0, Gnd 1, Out 2, internal nodes from 3), and each edge
   reduced to its two end ids plus two bitmasks over the input list, the
   inputs that must be 1 (n-type gates) and those that must be 0 (p-type
   gates).  An input row is then one union-find pass over the conducting
   edges; every query below reads the resulting components. *)
type compiled = {
  nodes : int;
  internal : (int, int) Hashtbl.t;  (* Internal i -> node id *)
  src : int array;
  dst : int array;
  ones : int array;
  zeros : int array;
}

let compile ~inputs edges =
  let internal = Hashtbl.create 16 in
  let id = function
    | Vdd -> 0
    | Gnd -> 1
    | Out -> 2
    | Internal i -> (
      match Hashtbl.find_opt internal i with
      | Some k -> k
      | None ->
        let k = 3 + Hashtbl.length internal in
        Hashtbl.add internal i k;
        k)
  in
  let bit name =
    let rec go k = function
      | [] ->
        invalid_arg
          (Printf.sprintf "Switch_graph: gate %s is not among the inputs" name)
      | x :: rest -> if x = name then 1 lsl k else go (k + 1) rest
    in
    go 0 inputs
  in
  let m = List.length edges in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let ones = Array.make m 0 and zeros = Array.make m 0 in
  List.iteri
    (fun k (e : edge) ->
      src.(k) <- id e.src;
      dst.(k) <- id e.dst;
      let mask = List.fold_left (fun acc g -> acc lor bit g) 0 e.gates in
      match e.polarity with
      | Network.N_type -> ones.(k) <- mask
      | Network.P_type -> zeros.(k) <- mask)
    edges;
  { nodes = 3 + Hashtbl.length internal; internal; src; dst; ones; zeros }

(* path halving *)
let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    let gp = parent.(p) in
    parent.(i) <- gp;
    find parent gp
  end

(* Merge the ends of every edge that conducts under [row] into one
   component; [parent] is scratch of length [c.nodes]. *)
let connect c parent row =
  for i = 0 to c.nodes - 1 do
    parent.(i) <- i
  done;
  for e = 0 to Array.length c.src - 1 do
    let ones = c.ones.(e) in
    if row land ones = ones && row land c.zeros.(e) = 0 then begin
      let a = find parent c.src.(e) and b = find parent c.dst.(e) in
      if a <> b then parent.(a) <- b
    end
  done

let drive_of c parent row =
  connect c parent row;
  let out = find parent 2 in
  match (find parent 0 = out, find parent 1 = out) with
  | true, false -> High
  | false, true -> Low
  | true, true -> Fight
  | false, false -> Floating

(* [env] as a row over the graph's own gate names. *)
let compile_env t env =
  let gates =
    List.sort_uniq compare (List.concat_map (fun (e : edge) -> e.gates) t.edges)
  in
  if List.length gates >= Sys.int_size then
    invalid_arg "Switch_graph: too many distinct gates";
  let c = compile ~inputs:gates t.edges in
  let row, _ =
    List.fold_left
      (fun (row, k) g -> ((if env g then row lor (1 lsl k) else row), k + 1))
      (0, 0) gates
  in
  (c, Array.make c.nodes 0, row)

let conducting_between t env a b =
  a = b
  ||
  let c, parent, row = compile_env t env in
  let id = function
    | Vdd -> Some 0
    | Gnd -> Some 1
    | Out -> Some 2
    | Internal i -> Hashtbl.find_opt c.internal i
  in
  match (id a, id b) with
  | Some a, Some b ->
    connect c parent row;
    find parent a = find parent b
  | None, _ | _, None -> false

let output_drive t env =
  let c, parent, row = compile_env t env in
  drive_of c parent row

let value_of_drive = function
  | High -> Truth.T
  | Low -> Truth.F
  | Fight | Floating -> Truth.X

let drive_string = function
  | High -> "1"
  | Low -> "0"
  | Fight -> "fight"
  | Floating -> "float"

let drive_table t ~inputs =
  let n = List.length inputs in
  if n > 16 then invalid_arg "Switch_graph.drive_table: too many inputs";
  let c = compile ~inputs t.edges in
  let parent = Array.make c.nodes 0 in
  Array.init (1 lsl n) (drive_of c parent)

let truth_table t ~inputs =
  Truth.of_column ~inputs (Array.map value_of_drive (drive_table t ~inputs))

let implements t e =
  let inputs = Expr.inputs e in
  let reference = Truth.of_expr (Expr.Not e) in
  Truth.equal (truth_table t ~inputs) reference
