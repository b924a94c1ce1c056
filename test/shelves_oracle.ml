(* The list-based shelf packer Flow.Placer.shelves used before it moved
   to arrays: the reference its property test compares against.  It
   rebuilds the shelf list for every cell it places. *)

open Flow.Placer

let ( let* ) = Result.bind

let dims lib inst =
  let* e = entry_for lib inst in
  let c = e.Stdcell.Library.scheme2 in
  Ok (c.Layout.Cell.width, c.Layout.Cell.height)

let sized_instances lib instances =
  List.fold_left
    (fun acc i ->
      let* acc = acc in
      let* d = dims lib i in
      Ok ((i, d) :: acc))
    (Ok []) instances
  |> Result.map List.rev

let target_row_width cells_area aspect =
  max 1 (int_of_float (sqrt (float_of_int cells_area *. aspect)))

(* First-fit decreasing height shelf packing. *)
let shelves ~lib ?(aspect = 1.0) netlist =
  let instances = netlist.Flow.Netlist_ir.instances in
  let* sized = sized_instances lib instances in
  let spacing = 1 in
  let total_area =
    List.fold_left (fun acc (_, (w, h)) -> acc + ((w + spacing) * h)) 0 sized
  in
  let bin_w = target_row_width total_area aspect in
  let sorted =
    List.sort
      (fun (_, (_, h1)) (_, (_, h2)) -> Stdlib.compare h2 h1)
      sized
  in
  (* shelves: (y, height, used_width, cells) *)
  let place shelves (i, (w, h)) =
    let rec fit acc = function
      | (y, sh, used, cs) :: rest when used + w <= bin_w && h <= sh ->
        let cell = { inst = i; x = used; y; cell_width = w; cell_height = h } in
        List.rev_append acc ((y, sh, used + w + spacing, cell :: cs) :: rest)
      | shelf :: rest -> fit (shelf :: acc) rest
      | [] ->
        let y =
          List.fold_left (fun m (sy, sh, _, _) -> max m (sy + sh + spacing)) 0
            (List.rev acc)
        in
        let cell = { inst = i; x = 0; y; cell_width = w; cell_height = h } in
        List.rev_append acc [ (y, h, w + spacing, [ cell ]) ]
    in
    fit [] shelves
  in
  let final = List.fold_left place [] sorted in
  let cells = List.concat_map (fun (_, _, _, cs) -> cs) final in
  let die_width =
    List.fold_left (fun m c -> max m (c.x + c.cell_width)) 0 cells
  in
  let die_height =
    List.fold_left (fun m c -> max m (c.y + c.cell_height)) 0 cells
  in
  let cell_area =
    List.fold_left (fun acc c -> acc + (c.cell_width * c.cell_height)) 0 cells
  in
  Ok { scheme = `Shelves; cells; die_width; die_height; cell_area }
