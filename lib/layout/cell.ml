type style = Immune_new | Immune_old | Vulnerable | Cmos
type scheme = Scheme1 | Scheme2

let style_string = function
  | Immune_new -> "new"
  | Immune_old -> "old"
  | Vulnerable -> "vulnerable"
  | Cmos -> "cmos"

let styles =
  List.map (fun s -> (style_string s, s))
    [ Immune_new; Immune_old; Vulnerable; Cmos ]

let scheme_string = function Scheme1 -> "s1" | Scheme2 -> "s2"

type t = {
  name : string;
  fn : Logic.Cell_fun.t;
  style : style;
  scheme : scheme;
  rules : Pdk.Rules.t;
  drive : int;
  pun : Fabric.t;
  pdn : Fabric.t;
  width : int;
  height : int;
}

let fabric_of ~rules ~style ~polarity ~widths net =
  match style with
  | Immune_new | Cmos -> Immune_new.strip ~rules ~polarity ~widths net
  | Immune_old ->
    Immune_old.strip ~rules ~polarity ~widths ~isolation:Immune_old.Etched net
  | Vulnerable ->
    Immune_old.strip ~rules ~polarity ~widths ~isolation:Immune_old.Bare net

let ( let* ) = Result.bind
let stage = "cell"

let check_drive ~cell drive =
  if drive >= 1 then Ok ()
  else
    Core.Diag.failf ~stage
      ~context:[ ("cell", cell); ("drive", string_of_int drive) ]
      "drive must be >= 1, got %d" drive

let lookup ~name ~drive =
  match Logic.Cell_fun.find_opt name with
  | None ->
    Core.Diag.failf ~stage ~context:[ ("cell", name) ]
      "unknown cell function %s" name
  | Some fn ->
    let* () = check_drive ~cell:fn.Logic.Cell_fun.name drive in
    Ok fn

let make ~rules ~fn ~style ~scheme ~drive =
  let* () = check_drive ~cell:fn.Logic.Cell_fun.name drive in
  let r : Pdk.Rules.t = rules in
  let core = fn.Logic.Cell_fun.core in
  let pdn_net = Logic.Network.of_expr core in
  let pun_net = Logic.Network.dual pdn_net in
  let nbase = drive in
  let pbase =
    match style with
    | Cmos ->
      int_of_float
        (Float.round (float_of_int drive *. r.Pdk.Rules.cmos_pn_ratio))
    | Immune_new | Immune_old | Vulnerable -> drive
  in
  let pdn_w = Sizing.widths ~base:nbase pdn_net in
  let pun_w = Sizing.widths ~base:pbase pun_net in
  let relabel d =
    Core.Diag.with_context [ ("cell", fn.Logic.Cell_fun.name) ] d
  in
  let* pdn =
    Result.map_error relabel
      (fabric_of ~rules ~style ~polarity:Logic.Network.N_type ~widths:pdn_w
         pdn_net)
  in
  let* pun =
    Result.map_error relabel
      (fabric_of ~rules ~style ~polarity:Logic.Network.P_type ~widths:pun_w
         pun_net)
  in
  let sep =
    match style with
    | Cmos -> r.Pdk.Rules.cmos_pun_pdn_sep
    | Immune_new | Immune_old | Vulnerable -> r.Pdk.Rules.cnfet_pun_pdn_sep
  in
  let pun, pdn, width, height =
    match scheme with
    | Scheme1 ->
      (* PDN at the bottom, PUN on top, separated by the routing channel *)
      let pdn = Fabric.translate ~dx:0 ~dy:0 pdn in
      let pun = Fabric.translate ~dx:0 ~dy:(Fabric.height pdn + sep) pun in
      let width = max (Fabric.width pun) (Fabric.width pdn) in
      let height = Fabric.height pdn + sep + Fabric.height pun in
      (pun, pdn, width, height)
    | Scheme2 ->
      (* PUN and PDN side by side *)
      let pun = Fabric.translate ~dx:0 ~dy:0 pun in
      let pdn = Fabric.translate ~dx:(Fabric.width pun + sep) ~dy:0 pdn in
      let width = Fabric.width pun + sep + Fabric.width pdn in
      let height = max (Fabric.height pun) (Fabric.height pdn) in
      (pun, pdn, width, height)
  in
  let name =
    Printf.sprintf "%s_%dX_%s" fn.Logic.Cell_fun.name drive
      (match style with
      | Immune_new -> "new"
      | Immune_old -> "old"
      | Vulnerable -> "vuln"
      | Cmos -> "cmos")
  in
  Ok { name; fn; style; scheme; rules; drive; pun; pdn; width; height }

let make_exn ~rules ~fn ~style ~scheme ~drive =
  Core.Diag.ok_exn (make ~rules ~fn ~style ~scheme ~drive)

let active_area t = Fabric.area t.pun + Fabric.area t.pdn
let footprint_area t = t.width * t.height

let pins t =
  let names = Logic.Expr.inputs t.fn.Logic.Cell_fun.core in
  let channel_y =
    match t.scheme with
    | Scheme1 -> Geom.Rect.(t.pdn.Fabric.bbox.y1) + 1
    | Scheme2 -> t.height + 1
  in
  let gate_x name =
    let all = Fabric.gates t.pun @ Fabric.gates t.pdn in
    match List.find_opt (fun (g, _) -> g = name) all with
    | Some (_, r) -> r.Geom.Rect.x0
    | None -> 0
  in
  List.map
    (fun n ->
      (n, Geom.Rect.of_size ~x:(gate_x n) ~y:channel_y ~w:2 ~h:2))
    names

(* Internal node ids are private to each fabric; PDN internals are offset
   so merging the two fabrics into one graph cannot capture nodes. *)
let pdn_internal_offset = 10_000

let offset_edge off (e : Logic.Switch_graph.edge) =
  let fix = function
    | Logic.Switch_graph.Internal i -> Logic.Switch_graph.Internal (i + off)
    | (Logic.Switch_graph.Vdd | Logic.Switch_graph.Gnd
      | Logic.Switch_graph.Out) as n -> n
  in
  { e with Logic.Switch_graph.src = fix e.src; dst = fix e.dst }

let reference_truth t =
  Logic.Truth.of_expr (Logic.Expr.Not t.fn.Logic.Cell_fun.core)

(* The nominal row edges, the input list and the reference table do not
   change between fault-injection trials; [prepared] derives them once so
   campaigns only pay per trial for the stray edges themselves.  The value
   is immutable and safe to share read-only across domains. *)
type prepared = {
  base_edges : Logic.Switch_graph.edge list;  (* offsets already applied *)
  inputs : string list;
  reference : Logic.Truth.t;
}

let prepare t =
  {
    base_edges =
      Logic.Switch_graph.edges (Fabric.switch_graph_of_rows t.pun)
      @ List.map
          (offset_edge pdn_internal_offset)
          (Logic.Switch_graph.edges (Fabric.switch_graph_of_rows t.pdn));
    inputs = Logic.Expr.inputs t.fn.Logic.Cell_fun.core;
    reference = reference_truth t;
  }

let prepared_reference p = p.reference
let prepared_inputs p = p.inputs

let graph_of_prepared p ~pun_tracks ~pdn_tracks =
  let graph = Logic.Switch_graph.create () in
  List.iter (Logic.Switch_graph.add_edge graph) p.base_edges;
  List.iter (List.iter (Logic.Switch_graph.add_edge graph)) pun_tracks;
  List.iter
    (List.iter (fun e ->
         Logic.Switch_graph.add_edge graph (offset_edge pdn_internal_offset e)))
    pdn_tracks;
  graph

let truth_of_prepared p ~pun_tracks ~pdn_tracks =
  Logic.Switch_graph.truth_table
    (graph_of_prepared p ~pun_tracks ~pdn_tracks)
    ~inputs:p.inputs

let drives_of_prepared p ~pun_tracks ~pdn_tracks =
  Logic.Switch_graph.drive_table
    (graph_of_prepared p ~pun_tracks ~pdn_tracks)
    ~inputs:p.inputs

let truth_with t ~pun_extra ~pdn_extra =
  truth_of_prepared (prepare t) ~pun_tracks:[ pun_extra ]
    ~pdn_tracks:[ pdn_extra ]

let check_function t =
  if Logic.Truth.equal (truth_with t ~pun_extra:[] ~pdn_extra:[]) (reference_truth t)
  then Ok ()
  else
    Error
      (Format.asprintf "cell %s deviates from %s" t.name
         (Logic.Expr.to_string
            (Logic.Expr.Not t.fn.Logic.Cell_fun.core)))

let layers t =
  let r = t.rules in
  let fabric_layers polarity_layer (f : Fabric.t) =
    [
      (Pdk.Layer.Cnt_plane, Geom.Region.of_rects f.Fabric.rows);
      (polarity_layer, Geom.Region.of_rects f.Fabric.rows);
      ( Pdk.Layer.Gate,
        Geom.Region.of_rects (List.map snd (Fabric.gates f)) );
      ( Pdk.Layer.Contact,
        Geom.Region.of_rects (List.map snd (Fabric.contacts f)) );
      (Pdk.Layer.Etch, Geom.Region.of_rects (Fabric.etches f));
    ]
  in
  let rails =
    let w = t.width in
    let h = r.Pdk.Rules.rail_height in
    Geom.Region.of_rects
      [
        Geom.Rect.of_size ~x:0 ~y:(-h - r.Pdk.Rules.cell_margin) ~w ~h;
        Geom.Rect.of_size ~x:0 ~y:(t.height + r.Pdk.Rules.cell_margin) ~w ~h;
      ]
  in
  let boundary =
    Geom.Region.of_rect
      (Geom.Rect.make
         ~x0:(-r.Pdk.Rules.cell_margin)
         ~y0:(-(2 * r.Pdk.Rules.rail_height) - r.Pdk.Rules.cell_margin)
         ~x1:(t.width + r.Pdk.Rules.cell_margin)
         ~y1:(t.height + (2 * r.Pdk.Rules.rail_height) + r.Pdk.Rules.cell_margin))
  in
  let pin_region =
    Geom.Region.of_rects (List.map snd (pins t))
  in
  let merge assoc =
    List.fold_left
      (fun acc (l, rg) ->
        match List.assoc_opt l acc with
        | Some prev ->
          (l, Geom.Region.union prev rg) :: List.remove_assoc l acc
        | None -> (l, rg) :: acc)
      [] assoc
  in
  merge
    (fabric_layers Pdk.Layer.Pdoping t.pun
    @ fabric_layers Pdk.Layer.Ndoping t.pdn
    @ [
        (Pdk.Layer.Metal1, rails);
        (Pdk.Layer.Boundary, boundary);
        (Pdk.Layer.Pin, pin_region);
      ])
  |> List.filter (fun (_, rg) -> not (Geom.Region.is_empty rg))
  |> List.sort (fun (a, _) (b, _) ->
         Stdlib.compare (Pdk.Layer.gds_number a) (Pdk.Layer.gds_number b))
