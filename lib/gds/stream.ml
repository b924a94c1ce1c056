type element = {
  layer : int;
  datatype : int;
  xy : (int * int) list;
}

type structure = { sname : string; elements : element list }

type library = {
  libname : string;
  user_unit_m : float;
  structures : structure list;
}

let element_of_rect ~layer (r : Geom.Rect.t) =
  {
    layer;
    datatype = 0;
    xy =
      [
        (r.Geom.Rect.x0, r.Geom.Rect.y0);
        (r.Geom.Rect.x1, r.Geom.Rect.y0);
        (r.Geom.Rect.x1, r.Geom.Rect.y1);
        (r.Geom.Rect.x0, r.Geom.Rect.y1);
        (r.Geom.Rect.x0, r.Geom.Rect.y0);
      ];
  }

let user_unit_m rules = rules.Pdk.Rules.lambda_nm *. 1e-9

let library ~rules ~name cells =
  let structures =
    List.map
      (fun (sname, layers) ->
        let elements =
          List.concat_map
            (fun (layer, region) ->
              List.map
                (element_of_rect ~layer:(Pdk.Layer.gds_number layer))
                (Geom.Region.rects region))
            layers
        in
        { sname; elements })
      cells
  in
  {
    libname = name;
    user_unit_m = user_unit_m rules;
    structures;
  }

let to_bytes lib =
  let structure_length s =
    List.fold_left
      (fun n e -> n + Writer.boundary_length ~points:(List.length e.xy))
      (Writer.structure_length s.sname)
      s.elements
  in
  let w =
    Writer.create
      (List.fold_left
         (fun n s -> n + structure_length s)
         (Writer.header_length ~libname:lib.libname + Writer.endlib_length)
         lib.structures)
  in
  let pos =
    Writer.header w 0 ~libname:lib.libname ~user_unit_m:lib.user_unit_m
  in
  let pos =
    List.fold_left
      (fun pos s ->
        let pos = Writer.begin_structure w pos s.sname in
        let pos =
          List.fold_left
            (fun pos e ->
              Writer.boundary w pos ~layer:e.layer ~datatype:e.datatype e.xy)
            pos s.elements
        in
        Writer.end_structure w pos)
      pos lib.structures
  in
  Writer.finish w pos

type parse_state = {
  mutable libname : string;
  mutable unit_m : float;
  mutable structures : structure list;  (* reversed *)
  mutable cur_name : string option;
  mutable cur_elems : element list;  (* reversed *)
  mutable el_layer : int;
  mutable el_dt : int;
  mutable in_boundary : bool;
}

let of_bytes s =
  let st =
    {
      libname = "";
      unit_m = 1e-9;
      structures = [];
      cur_name = None;
      cur_elems = [];
      el_layer = 0;
      el_dt = 0;
      in_boundary = false;
    }
  in
  let rec xy_pairs = function
    | x :: y :: rest -> (x, y) :: xy_pairs rest
    | [ _ ] -> []
    | [] -> []
  in
  let rec loop pos =
    if pos >= String.length s then Error "missing ENDLIB"
    else
      match Record.decode s ~pos with
      | Error e -> Error e
      | Ok (r, next) -> (
        match (r.Record.rtype, r.Record.payload) with
        | Record.Endlib, _ -> Ok ()
        | Record.Libname, Record.Ascii n ->
          st.libname <- n;
          loop next
        | Record.Units, Record.Real8 [ _; m ] ->
          st.unit_m <- m;
          loop next
        | Record.Strname, Record.Ascii n ->
          st.cur_name <- Some n;
          st.cur_elems <- [];
          loop next
        | Record.Endstr, _ ->
          (match st.cur_name with
          | Some sname ->
            st.structures <-
              { sname; elements = List.rev st.cur_elems } :: st.structures
          | None -> ());
          st.cur_name <- None;
          loop next
        | Record.Boundary, _ ->
          st.in_boundary <- true;
          st.el_layer <- 0;
          st.el_dt <- 0;
          loop next
        | Record.Layer, Record.I16 [ l ] ->
          st.el_layer <- l;
          loop next
        | Record.Datatype, Record.I16 [ d ] ->
          st.el_dt <- d;
          loop next
        | Record.Xy, Record.I32 coords ->
          if st.in_boundary then
            st.cur_elems <-
              { layer = st.el_layer; datatype = st.el_dt; xy = xy_pairs coords }
              :: st.cur_elems;
          loop next
        | Record.Endel, _ ->
          st.in_boundary <- false;
          loop next
        | ( ( Record.Header | Record.Bgnlib | Record.Bgnstr | Record.Sref
            | Record.Sname | Record.Text | Record.String_ | Record.Texttype
            | Record.Presentation | Record.Libname | Record.Units
            | Record.Layer | Record.Datatype | Record.Strname | Record.Xy ),
            _ ) ->
          loop next)
  in
  match loop 0 with
  | Error e -> Error e
  | Ok () ->
    Ok
      {
        libname = st.libname;
        user_unit_m = st.unit_m;
        structures = List.rev st.structures;
      }

let write_file path lib =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_bytes lib))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      of_bytes s)
