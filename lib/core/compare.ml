type row = {
  cell_name : string;
  size_lambda : int;
  area_new : int;
  area_old : int;
  saving_pct : float;
}

let row ?(rules = Pdk.Rules.default) fn ~size =
  let mk style =
    Layout.Cell.make_exn ~rules ~fn ~style ~scheme:Layout.Cell.Scheme1 ~drive:size
  in
  let area_new = Layout.Cell.active_area (mk Layout.Cell.Immune_new) in
  let area_old = Layout.Cell.active_area (mk Layout.Cell.Immune_old) in
  let saving_pct =
    if area_old = 0 then 0.
    else 100. *. float_of_int (area_old - area_new) /. float_of_int area_old
  in
  { cell_name = fn.Logic.Cell_fun.name; size_lambda = size; area_new; area_old; saving_pct }

let table1_cells =
  [
    Logic.Cell_fun.inv;
    Logic.Cell_fun.nand 2;
    Logic.Cell_fun.nor 2;
    Logic.Cell_fun.nand 3;
    Logic.Cell_fun.nor 3;
    Logic.Cell_fun.aoi22;
    Logic.Cell_fun.oai22;
    Logic.Cell_fun.aoi21;
    Logic.Cell_fun.oai21;
  ]

let table1 ?(rules = Pdk.Rules.default) () =
  List.concat_map
    (fun fn -> List.map (fun size -> row ~rules fn ~size) [ 3; 4; 6; 10 ])
    table1_cells

(* Published Table 1 (percent area difference vs [6]). *)
let paper_table1 =
  [
    ("INV", [ (3, 0.); (4, 0.); (6, 0.); (10, 0.) ]);
    ("NAND2", [ (3, 17.18); (4, 14.52); (6, 11.67); (10, 9.25) ]);
    ("NOR2", [ (3, 17.18); (4, 14.52); (6, 11.67); (10, 9.25) ]);
    ("NAND3", [ (3, 19.64); (4, 16.67); (6, 13.45); (10, 10.71) ]);
    ("NOR3", [ (3, 19.64); (4, 16.67); (6, 13.45); (10, 10.71) ]);
    ("AOI22", [ (3, 32.2); (4, 27.7); (6, 22.5); (10, 14.9) ]);
    ("OAI22", [ (3, 32.2); (4, 27.7); (6, 22.5); (10, 14.9) ]);
    ("AOI21", [ (3, 44.3); (4, 40.6); (6, 36.4); (10, 32.5) ]);
    ("OAI21", [ (3, 44.3); (4, 40.6); (6, 36.4); (10, 32.5) ]);
  ]

type footprint = {
  fp_cell : string;
  cnfet_area : int;
  cmos_area : int;
  gain : float;
}

let inverter_footprint ?(rules = Pdk.Rules.default) ~width () =
  let fn = Logic.Cell_fun.inv in
  let mk style =
    Layout.Cell.make_exn ~rules ~fn ~style ~scheme:Layout.Cell.Scheme1 ~drive:width
  in
  let cnfet_area = Layout.Cell.footprint_area (mk Layout.Cell.Immune_new) in
  let cmos_area = Layout.Cell.footprint_area (mk Layout.Cell.Cmos) in
  {
    fp_cell = Printf.sprintf "INV_w%d" width;
    cnfet_area;
    cmos_area;
    gain =
      (if cnfet_area = 0 then 0.
       else float_of_int cmos_area /. float_of_int cnfet_area);
  }
