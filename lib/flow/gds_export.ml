let ( let* ) = Result.bind

(* One entry of a cell's [Layout.Cell.layers]: its slot among the layers
   of the top structure, its GDS layer number and its rectangles. *)
type entry = { slot : int; number : int; rects : Geom.Rect.t array }

(* A referenced cell, flattened once however many instances place it. *)
type cell = { sname : string; entries : entry array }

(* Names are design-controlled, so an over-long one is a diagnostic, not a
   wrapped record length; the name is shortened for the message. *)
let check_name ~record ~key name =
  let length = Gds.Writer.name_length name in
  if length <= Gds.Record.max_length then Ok ()
  else
    let shown =
      if String.length name <= 64 then name
      else
        Printf.sprintf "%s... (%d chars)" (String.sub name 0 48)
          (String.length name)
    in
    Core.Diag.failf ~stage:"gds_export"
      ~context:
        [ (key, shown); ("record", record); ("length", string_of_int length) ]
      "%s record of %d bytes exceeds the %d-byte GDSII record limit" record
      length Gds.Record.max_length

(* The stream is written in one pass into a buffer of exactly its size,
   in the byte order the interface states.  Grouping by layer needs no
   per-layer lists: a count pass sizes every layer of the top structure,
   so the write pass, walking the instances in placement order, puts each
   translated rectangle straight at its layer's running offset. *)
let placement ~lib ~scheme ~name (p : Placer.t) =
  let slots = Hashtbl.create 16 and cells = Hashtbl.create 16 in
  let first_refs = ref [] in
  let slot layer =
    match Hashtbl.find_opt slots layer with
    | Some s -> s
    | None ->
      let s = Hashtbl.length slots in
      Hashtbl.add slots layer s;
      s
  in
  let cell_of (l : Layout.Cell.t) =
    match Hashtbl.find_opt cells l.Layout.Cell.name with
    | Some c -> c
    | None ->
      let entries =
        Array.of_list
          (List.map
             (fun (layer, region) ->
               {
                 slot = slot layer;
                 number = Pdk.Layer.gds_number layer;
                 rects = Array.of_list (Geom.Region.rects region);
               })
             (Layout.Cell.layers l))
      in
      let c = { sname = l.Layout.Cell.name; entries } in
      Hashtbl.add cells c.sname c;
      first_refs := c :: !first_refs;
      c
  in
  (* resolve every placed instance once, stopping at the first error *)
  let* placed =
    List.fold_left
      (fun acc (pc : Placer.placed_cell) ->
        let* acc = acc in
        let* e = Placer.entry_for lib pc.Placer.inst in
        let l =
          match scheme with
          | `S1 -> e.Stdcell.Library.scheme1
          | `S2 -> e.Stdcell.Library.scheme2
        in
        Ok ((pc, cell_of l) :: acc))
      (Ok []) p.Placer.cells
    |> Result.map List.rev
  in
  let cells = List.rev !first_refs in
  let top = name ^ "_top" in
  let* () = check_name ~record:"LIBNAME" ~key:"library" name in
  let* () = check_name ~record:"STRNAME" ~key:"structure" top in
  let* () =
    List.fold_left
      (fun acc c ->
        let* () = acc in
        check_name ~record:"STRNAME" ~key:"structure" c.sname)
      (Ok ()) cells
  in
  (* count pass: rectangles and last occurrence of every top layer *)
  let nslots = Hashtbl.length slots in
  let count = Array.make nslots 0 and last = Array.make nslots 0 in
  let k = ref 0 in
  List.iter
    (fun (_, c) ->
      Array.iter
        (fun e ->
          count.(e.slot) <- count.(e.slot) + Array.length e.rects;
          last.(e.slot) <- !k;
          incr k)
        c.entries)
    placed;
  let order =
    List.sort
      (fun a b -> Int.compare last.(b) last.(a))
      (List.init nslots Fun.id)
  in
  let rect_bytes n = n * Gds.Writer.rect_length in
  let w =
    Gds.Writer.create
      (List.fold_left
         (fun n c ->
           Array.fold_left
             (fun n e -> n + rect_bytes (Array.length e.rects))
             (n + Gds.Writer.structure_length c.sname)
             c.entries)
         (Gds.Writer.header_length ~libname:name
         + Gds.Writer.structure_length top
         + rect_bytes (Array.fold_left ( + ) 0 count)
         + Gds.Writer.endlib_length)
         cells)
  in
  let pos =
    Gds.Writer.header w 0 ~libname:name
      ~user_unit_m:(Gds.Stream.user_unit_m lib.Stdcell.Library.rules)
  in
  let pos = Gds.Writer.begin_structure w pos top in
  (* write pass: each layer's rectangles start where the previous layer's
     end *)
  let cursor = Array.make nslots 0 in
  let pos =
    List.fold_left
      (fun pos s ->
        cursor.(s) <- pos;
        pos + rect_bytes count.(s))
      pos order
  in
  List.iter
    (fun ((pc : Placer.placed_cell), c) ->
      let dx = pc.Placer.x and dy = pc.Placer.y in
      Array.iter
        (fun e ->
          let at = ref cursor.(e.slot) in
          for i = 0 to Array.length e.rects - 1 do
            at := Gds.Writer.rect w !at ~layer:e.number ~dx ~dy e.rects.(i)
          done;
          cursor.(e.slot) <- !at)
        c.entries)
    placed;
  let pos = Gds.Writer.end_structure w pos in
  let pos =
    List.fold_left
      (fun pos c ->
        let pos = Gds.Writer.begin_structure w pos c.sname in
        let pos =
          Array.fold_left
            (fun pos e ->
              Array.fold_left
                (fun pos r ->
                  Gds.Writer.rect w pos ~layer:e.number ~dx:0 ~dy:0 r)
                pos e.rects)
            pos c.entries
        in
        Gds.Writer.end_structure w pos)
      pos cells
  in
  Ok (Gds.Writer.finish w pos)
