type placed_cell = {
  inst : Netlist_ir.instance;
  x : int;
  y : int;
  cell_width : int;
  cell_height : int;
}

type t = {
  scheme : [ `Rows | `Shelves ];
  cells : placed_cell list;
  die_width : int;
  die_height : int;
  cell_area : int;
}

let die_area t = t.die_width * t.die_height

let utilization t =
  let da = die_area t in
  if da = 0 then 0. else float_of_int t.cell_area /. float_of_int da

let ( let* ) = Result.bind

let entry_for lib (inst : Netlist_ir.instance) =
  Result.map_error
    (fun d ->
      Core.Diag.with_context
        [ ("instance", inst.Netlist_ir.inst_name) ]
        (Core.Diag.with_stage "placer" d))
    (Stdcell.Library.find lib ~name:inst.Netlist_ir.cell
       ~drive:inst.Netlist_ir.drive)

let dims lib scheme inst =
  let* e = entry_for lib inst in
  let c =
    match scheme with
    | `S1 -> e.Stdcell.Library.scheme1
    | `S2 -> e.Stdcell.Library.scheme2
  in
  Ok (c.Layout.Cell.width, c.Layout.Cell.height)

(* Size every instance, stopping at the first missing library cell. *)
let sized_instances lib scheme instances =
  List.fold_left
    (fun acc i ->
      let* acc = acc in
      let* d = dims lib scheme i in
      Ok ((i, d) :: acc))
    (Ok []) instances
  |> Result.map List.rev

let target_row_width cells_area aspect =
  max 1 (int_of_float (sqrt (float_of_int cells_area *. aspect)))

let rows ~lib ?(aspect = 1.0) netlist =
  let instances = netlist.Netlist_ir.instances in
  let* sized = sized_instances lib `S1 instances in
  let row_h =
    List.fold_left (fun acc (_, (_, h)) -> max acc h) 0 sized
  in
  let spacing = 1 in
  let total_area =
    List.fold_left (fun acc (_, (w, _)) -> acc + ((w + spacing) * row_h)) 0 sized
  in
  let row_w = target_row_width total_area aspect in
  let place (cells, x, y, max_x) (i, (w, h)) =
    let x, y = if x > 0 && x + w > row_w then (0, y + row_h + spacing) else (x, y) in
    let cell = { inst = i; x; y; cell_width = w; cell_height = h } in
    (cell :: cells, x + w + spacing, y, max max_x (x + w))
  in
  let cells, _, last_y, max_x =
    List.fold_left place ([], 0, 0, 0) sized
  in
  let cell_area =
    List.fold_left (fun acc c -> acc + (c.cell_width * c.cell_height)) 0 cells
  in
  Ok
    {
      scheme = `Rows;
      cells = List.rev cells;
      die_width = max_x;
      die_height = last_y + row_h;
      cell_area;
    }

(* A shelf of the scheme-2 packing. *)
type shelf = {
  shelf_y : int;
  shelf_h : int;
  mutable used : int;  (** width taken so far, spacing included *)
  mutable placed : placed_cell list;  (** last-placed first *)
}

(* First-fit decreasing height shelf packing over arrays: the sized cells
   sorted tallest first (ties in netlist order), and the open shelves in
   the order they were opened.  A shelf closes once the narrowest cell
   of the design no longer fits beside its cells, so first fit scans only
   shelves that can still take a cell.  The cells come out shelf by
   shelf, each shelf's last-placed cell first. *)
let shelves ~lib ?(aspect = 1.0) netlist =
  let instances = netlist.Netlist_ir.instances in
  let* sized = sized_instances lib `S2 instances in
  let sized = Array.of_list sized in
  let spacing = 1 in
  let total_area =
    Array.fold_left (fun acc (_, (w, h)) -> acc + ((w + spacing) * h)) 0 sized
  in
  let bin_w = target_row_width total_area aspect in
  Array.stable_sort (fun (_, (_, h1)) (_, (_, h2)) -> Int.compare h2 h1) sized;
  let narrowest =
    Array.fold_left (fun m (_, (w, _)) -> min m w) max_int sized
  in
  let opened = ref [] and next_y = ref 0 in
  let open_ =
    Array.make (Array.length sized)
      { shelf_y = 0; shelf_h = 0; used = 0; placed = [] }
  in
  let n_open = ref 0 in
  let die_width = ref 0 and die_height = ref 0 and cell_area = ref 0 in
  let place s (i, (w, h)) =
    let x = s.used and y = s.shelf_y in
    s.placed <- { inst = i; x; y; cell_width = w; cell_height = h } :: s.placed;
    s.used <- x + w + spacing;
    die_width := max !die_width (x + w);
    die_height := max !die_height (y + h);
    cell_area := !cell_area + (w * h)
  in
  let rec first_fit w h j =
    if j = !n_open then None
    else
      let s = open_.(j) in
      if s.used + w <= bin_w && h <= s.shelf_h then Some j
      else first_fit w h (j + 1)
  in
  Array.iter
    (fun ((_, (w, h)) as cell) ->
      match first_fit w h 0 with
      | Some j ->
        let s = open_.(j) in
        place s cell;
        if s.used + narrowest > bin_w then begin
          Array.blit open_ (j + 1) open_ j (!n_open - j - 1);
          decr n_open
        end
      | None ->
        let s = { shelf_y = !next_y; shelf_h = h; used = 0; placed = [] } in
        place s cell;
        opened := s :: !opened;
        next_y := s.shelf_y + h + spacing;
        if s.used + narrowest <= bin_w then begin
          open_.(!n_open) <- s;
          incr n_open
        end)
    sized;
  Ok
    {
      scheme = `Shelves;
      cells = List.concat_map (fun s -> s.placed) (List.rev !opened);
      die_width = !die_width;
      die_height = !die_height;
      cell_area = !cell_area;
    }

(* One pass over the placed cells builds each net's pin-center bounding
   box (HPWL needs nothing else); a cell contributes one pin position per
   distinct net it touches, its output and its inputs alike.  The sum runs
   over the boxes themselves: for a placement of [netlist] they are
   exactly the netlist's nets. *)
type box = {
  mutable x0 : int;
  mutable x1 : int;
  mutable y0 : int;
  mutable y1 : int;
  mutable pins : int;
  mutable last : int;  (** index of the last cell that touched the net *)
}

let wirelength_estimate t _netlist =
  let boxes : (string, box) Hashtbl.t =
    Hashtbl.create (1 + List.length t.cells)
  in
  List.iteri
    (fun k c ->
      let px = c.x + (c.cell_width / 2) and py = c.y + (c.cell_height / 2) in
      let touch net =
        match Hashtbl.find_opt boxes net with
        | None ->
          Hashtbl.add boxes net
            { x0 = px; x1 = px; y0 = py; y1 = py; pins = 1; last = k }
        | Some b when b.last <> k ->
          b.x0 <- min b.x0 px;
          b.x1 <- max b.x1 px;
          b.y0 <- min b.y0 py;
          b.y1 <- max b.y1 py;
          b.pins <- b.pins + 1;
          b.last <- k
        | Some _ -> ()
      in
      touch c.inst.Netlist_ir.output;
      List.iter (fun (_, net) -> touch net) c.inst.Netlist_ir.conns)
    t.cells;
  Hashtbl.fold
    (fun _ b acc ->
      if b.pins >= 2 then acc + (b.x1 - b.x0) + (b.y1 - b.y0) else acc)
    boxes 0
