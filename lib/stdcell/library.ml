type technology = Cnfet_tech of Device.Cnfet.tech | Cmos_tech of Device.Mosfet.tech

type entry = {
  cell_name : string;
  fn : Logic.Cell_fun.t;
  drive : int;
  technology : technology;
  scheme1 : Layout.Cell.t;
  scheme2 : Layout.Cell.t;
  width_lambda_base : int;
}

type t = {
  lib_name : string;
  rules : Pdk.Rules.t;
  pitch_nm : float;
  entries : entry list;
}

let base_width_lambda = Pdk.Rules.default.Pdk.Rules.min_width

let optimal_pitch_nm = 5.0

let tubes_for ?(pitch_nm = optimal_pitch_nm) _tech ~rules ~width_lambda =
  let width_nm = Pdk.Rules.nm_of_lambda rules width_lambda in
  max 1 (1 + int_of_float (Float.round (width_nm /. pitch_nm)))

let factory t ~polarity ~width_lambda ~name =
  match
    (List.nth_opt t.entries 0, t.entries)
  with
  | None, _ | _, [] -> invalid_arg "Library.factory: empty library"
  | Some e, _ -> (
    match e.technology with
    | Cnfet_tech tech ->
      let width_nm = Pdk.Rules.nm_of_lambda t.rules width_lambda in
      let tubes =
        tubes_for ~pitch_nm:t.pitch_nm tech ~rules:t.rules ~width_lambda
      in
      Device.Cnfet.make tech ~name ~polarity ~tubes ~width_nm ()
    | Cmos_tech tech ->
      let scale =
        match polarity with
        | Device.Model.Pfet -> t.rules.Pdk.Rules.cmos_pn_ratio
        | Device.Model.Nfet -> 1.
      in
      let width_nm = Pdk.Rules.nm_of_lambda t.rules width_lambda *. scale in
      Device.Mosfet.make tech ~name ~polarity ~width_nm ())

let ( let* ) = Result.bind

let entry_of ~rules ~technology ~style fn drive =
  let base = drive * base_width_lambda in
  let* scheme1 =
    Layout.Cell.make ~rules ~fn ~style ~scheme:Layout.Cell.Scheme1 ~drive:base
  in
  let* scheme2 =
    Layout.Cell.make ~rules ~fn ~style ~scheme:Layout.Cell.Scheme2 ~drive:base
  in
  Ok
    {
      cell_name = Printf.sprintf "%s_%dX" fn.Logic.Cell_fun.name drive;
      fn;
      drive;
      technology;
      scheme1;
      scheme2;
      width_lambda_base = base;
    }

(* Cells that synthesis maps at every requested drive; the rest of the
   catalog is built at drive 1 only.  AOI21/OAI21 and the complemented-pin
   XOR2/MUX2 join INV/NAND2 here so generated netlists (multipliers,
   LFSRs, random clouds) can be drive-sized.  [build] and [offers] both
   read this one list. *)
let sized = Logic.Cell_fun.[ inv; nand 2; aoi21; oai21; xor2; mux2 ]

let is_sized (fn : Logic.Cell_fun.t) =
  List.exists (fun f -> f.Logic.Cell_fun.name = fn.Logic.Cell_fun.name) sized

(* the drives [build ~drives] makes [fn] at *)
let drives_of fn drives = if is_sized fn then drives else [ 1 ]

let offers ~name ~drive =
  let* fn = Layout.Cell.lookup ~name ~drive in
  if List.mem drive (drives_of fn [ drive ]) then Ok fn
  else
    Core.Diag.failf ~stage:"library"
      ~context:
        [
          ("cell", fn.Logic.Cell_fun.name);
          ("drive", string_of_int drive);
          ("available_drives", "1");
        ]
      "no cell %s at drive %d: the library builds it at drive 1 only"
      fn.Logic.Cell_fun.name drive

(* Sequence a list of fallible builds, keeping the order. *)
let collect xs =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* x = x in
      Ok (x :: acc))
    (Ok []) xs
  |> Result.map List.rev

let build ?(pitch_nm = optimal_pitch_nm) ~lib_name ~rules ~technology ~style
    ~drives () =
  let* () =
    if pitch_nm > 0. && Float.is_finite pitch_nm then Ok ()
    else
      Core.Diag.failf ~stage:"library"
        ~context:[ ("pitch_nm", string_of_float pitch_nm) ]
        "CNT pitch must be positive and finite"
  in
  let fns =
    sized @ List.filter (fun fn -> not (is_sized fn)) Logic.Cell_fun.all
  in
  let* entries =
    collect
      (List.concat_map
         (fun fn ->
           List.map (entry_of ~rules ~technology ~style fn) (drives_of fn drives))
         fns)
  in
  Ok { lib_name; rules; pitch_nm; entries }

let relabel lib_name r =
  Result.map_error
    (fun d ->
      Core.Diag.with_context [ ("library", lib_name) ]
        (Core.Diag.with_stage "library" d))
    r

let cnfet ?(tech = Device.Cnfet.default_tech) ?(rules = Pdk.Rules.default)
    ?pitch_nm ~drives () =
  relabel "cnfet65"
    (build ?pitch_nm ~lib_name:"cnfet65" ~rules ~technology:(Cnfet_tech tech)
       ~style:Layout.Cell.Immune_new ~drives ())

let cnfet_exn ?tech ?rules ?pitch_nm ~drives () =
  Core.Diag.ok_exn (cnfet ?tech ?rules ?pitch_nm ~drives ())

let cmos ?(tech = Device.Mosfet.default_tech) ?(rules = Pdk.Rules.default)
    ~drives () =
  relabel "cmos65"
    (build ~lib_name:"cmos65" ~rules ~technology:(Cmos_tech tech)
       ~style:Layout.Cell.Cmos ~drives ())

let cmos_exn ?tech ?rules ~drives () =
  Core.Diag.ok_exn (cmos ?tech ?rules ~drives ())

let find t ~name ~drive =
  let wanted = String.uppercase_ascii name in
  match
    List.find_opt
      (fun e -> e.fn.Logic.Cell_fun.name = wanted && e.drive = drive)
      t.entries
  with
  | Some e -> Ok e
  | None ->
    let available =
      t.entries
      |> List.filter (fun e -> e.fn.Logic.Cell_fun.name = wanted)
      |> List.map (fun e -> string_of_int e.drive)
      |> String.concat ","
    in
    Core.Diag.failf ~stage:"library"
      ~context:
        [
          ("library", t.lib_name);
          ("cell", wanted);
          ("drive", string_of_int drive);
          ("available_drives", available);
        ]
      "no cell %s at drive %d in library %s" wanted drive t.lib_name

let find_exn t ~name ~drive = Core.Diag.ok_exn (find t ~name ~drive)

let cell_height_scheme1 t =
  List.fold_left (fun acc e -> max acc e.scheme1.Layout.Cell.height) 0 t.entries
