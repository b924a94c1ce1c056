type parasitics = {
  out_cap_f : float;
  in_caps_f : (string * float) list;
  rail_res_ohm : float;
}

let af = 1e-18

let cap_of_rect tables layer r =
  let area = float_of_int (Geom.Rect.area r) in
  let perim = float_of_int (2 * (Geom.Rect.width r + Geom.Rect.height r)) in
  ((area *. Tables.area_cap tables layer)
  +. (perim *. Tables.fringe_cap tables layer))
  *. af

let fabric_out_cap tables (f : Layout.Fabric.t) =
  Layout.Fabric.contacts f
  |> List.filter (fun (n, _) -> n = Logic.Switch_graph.Out)
  |> List.fold_left
       (fun acc (_, r) -> acc +. cap_of_rect tables Pdk.Layer.Contact r)
       0.

let fabric_in_caps tables (f : Layout.Fabric.t) =
  Layout.Fabric.gates f
  |> List.map (fun (g, r) -> (g, cap_of_rect tables Pdk.Layer.Gate r))

let merge_assoc a b =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some v' -> (k, v +. v') :: List.remove_assoc k acc
      | None -> (k, v) :: acc)
    a b

type coupling = {
  a : string;
  b : string;
  cap_f : float;
}

(* Outlines farther apart than this many lambda do not couple. *)
let max_gap = 4

(* Lateral coupling between two abutting-but-disjoint outlines: fringe
   capacitance over the facing overlap length, divided by the separation
   (plus one lambda so exact abutment stays finite). *)
let coupling_of (an, (ra : Geom.Rect.t)) (bn, (rb : Geom.Rect.t)) =
  if Geom.Rect.intersects ra rb then None
  else begin
    let gap_x =
      max 0 (max (rb.Geom.Rect.x0 - ra.Geom.Rect.x1) (ra.Geom.Rect.x0 - rb.Geom.Rect.x1))
    and gap_y =
      max 0 (max (rb.Geom.Rect.y0 - ra.Geom.Rect.y1) (ra.Geom.Rect.y0 - rb.Geom.Rect.y1))
    in
    let overlap_y =
      min ra.Geom.Rect.y1 rb.Geom.Rect.y1 - max ra.Geom.Rect.y0 rb.Geom.Rect.y0
    and overlap_x =
      min ra.Geom.Rect.x1 rb.Geom.Rect.x1 - max ra.Geom.Rect.x0 rb.Geom.Rect.x0
    in
    let gap, facing =
      if gap_x > 0 && overlap_y > 0 then (gap_x, overlap_y)
      else if gap_y > 0 && overlap_x > 0 then (gap_y, overlap_x)
      else (0, 0)
    in
    if facing <= 0 then None
    else
      let cap_f =
        Tables.fringe_cap Tables.default Pdk.Layer.Metal1
        *. float_of_int facing
        /. float_of_int (gap + 1)
        *. af
      in
      Some { a = an; b = bn; cap_f }
  end

let couplings_naive placements =
  let rec pairs acc = function
    | [] -> List.rev acc
    | ((_, ra) as a) :: rest ->
      let acc =
        List.fold_left
          (fun acc ((_, rb) as b) ->
            let w = Geom.Rect.inflate max_gap ra in
            if
              w.Geom.Rect.x0 <= rb.Geom.Rect.x1
              && rb.Geom.Rect.x0 <= w.Geom.Rect.x1
              && w.Geom.Rect.y0 <= rb.Geom.Rect.y1
              && rb.Geom.Rect.y0 <= w.Geom.Rect.y1
            then
              match coupling_of a b with
              | Some c -> c :: acc
              | None -> acc
            else acc)
          acc rest
      in
      pairs acc rest
  in
  pairs [] placements

let couplings placements =
  match placements with
  | [] | [ _ ] -> []
  | _ ->
    let arr = Array.of_list placements in
    let index =
      Geom.Index.build (List.mapi (fun i (_, r) -> (r, i)) placements)
    in
    List.concat
      (List.mapi
         (fun i ((_, r) as a) ->
           Geom.Index.query_rect index (Geom.Rect.inflate max_gap r)
           |> List.filter_map (fun (_, j) ->
                  if j > i then coupling_of a arr.(j) else None))
         placements)

let cell (c : Layout.Cell.t) =
  let tables = Tables.default in
  let out_cap_f =
    fabric_out_cap tables c.Layout.Cell.pun
    +. fabric_out_cap tables c.Layout.Cell.pdn
  in
  let in_caps_f =
    merge_assoc
      (fabric_in_caps tables c.Layout.Cell.pun)
      (fabric_in_caps tables c.Layout.Cell.pdn)
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
  in
  (* worst path: one contact in, the strip, one contact out *)
  let strip_squares (f : Layout.Fabric.t) =
    let b = f.Layout.Fabric.bbox in
    if Geom.Rect.height b = 0 then 0.
    else float_of_int (Geom.Rect.width b) /. float_of_int (Geom.Rect.height b)
  in
  let rail_res_ohm =
    (2. *. tables.Tables.contact_res_ohm)
    +. (Tables.sheet_res tables Pdk.Layer.Metal1
       *. (strip_squares c.Layout.Cell.pun +. strip_squares c.Layout.Cell.pdn))
  in
  { out_cap_f; in_caps_f; rail_res_ohm }
