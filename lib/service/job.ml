type flow_source =
  | Full_adder
  | Ripple of int
  | Netlist_text of string
  | Generated of string

type flow_job = {
  source : flow_source;
  scheme : [ `S1 | `S2 ];
  aspect : float;
}

type fault_job = {
  cell : string;
  drive : int;
  style : Layout.Cell.style;
  trials : int;
  tracks_per_trial : int;
  max_angle_deg : float;
  seed : int;
}

type characterize_job = {
  char_cell : string;
  char_drive : int;
  loads : int list;
}

type testgen_job = {
  tg_cell : string;
  tg_drive : int;
  tg_style : Layout.Cell.style;
  tg_scheme : [ `S1 | `S2 ];
  tg_trials : int;
  tg_tracks_per_trial : int;
  tg_max_angle_deg : float;
  tg_seed : int;
  tg_max_spares : int;
  tg_p_good : float;
  tg_max_extra_tubes : int;
}

type dse_job = {
  dse_cell : string;
  dse_style : Layout.Cell.style;
  dse_pitches : float list;
  dse_p_metallic : float list;
  dse_removal : float list;
  dse_drives : int list;
  dse_schemes : [ `S1 | `S2 ] list;
  dse_load : int;
  dse_max_trials : int;
  dse_seed : int;
  dse_adaptive : bool;
}

type t =
  | Flow of flow_job
  | Fault of fault_job
  | Characterize of characterize_job
  | Testgen of testgen_job
  | Dse of dse_job

let flow ?(scheme = `S2) ?(aspect = 1.0) source = Flow { source; scheme; aspect }

let fault ?(drive = 4) ?(style = Layout.Cell.Immune_new) ?(trials = 1000)
    ?(tracks_per_trial = 3) ?(max_angle_deg = 8.) ?(seed = 42) cell =
  Fault { cell; drive; style; trials; tracks_per_trial; max_angle_deg; seed }

let characterize ?(drive = 1) ?(loads = [ 1; 2; 4 ]) cell =
  Characterize { char_cell = cell; char_drive = drive; loads }

let testgen ?(drive = 4) ?(style = Layout.Cell.Vulnerable) ?(scheme = `S1)
    ?(trials = 1000) ?(tracks_per_trial = 3) ?(max_angle_deg = 8.)
    ?(seed = 42) ?(max_spares = 2) ?(p_good = 0.9) ?(max_extra_tubes = 4)
    cell =
  Testgen
    {
      tg_cell = cell;
      tg_drive = drive;
      tg_style = style;
      tg_scheme = scheme;
      tg_trials = trials;
      tg_tracks_per_trial = tracks_per_trial;
      tg_max_angle_deg = max_angle_deg;
      tg_seed = seed;
      tg_max_spares = max_spares;
      tg_p_good = p_good;
      tg_max_extra_tubes = max_extra_tubes;
    }

let dse ?(style = Layout.Cell.Vulnerable) ?(pitches = [ 4.; 5.; 6.; 8. ])
    ?(p_metallic = [ 0.01; 0.1; 0.33 ]) ?(removal = [ 0.95; 0.999 ])
    ?(drives = [ 1; 2 ]) ?(schemes = [ `S1; `S2 ]) ?(load = 2)
    ?(max_trials = 400) ?(seed = 42) ?(adaptive = true) cell =
  Dse
    {
      dse_cell = cell;
      dse_style = style;
      dse_pitches = pitches;
      dse_p_metallic = p_metallic;
      dse_removal = removal;
      dse_drives = drives;
      dse_schemes = schemes;
      dse_load = load;
      dse_max_trials = max_trials;
      dse_seed = seed;
      dse_adaptive = adaptive;
    }

let kind = function
  | Flow _ -> "flow"
  | Fault _ -> "fault"
  | Characterize _ -> "characterize"
  | Testgen _ -> "testgen"
  | Dse _ -> "dse"

let scheme_string = function `S1 -> "s1" | `S2 -> "s2"

let style_string = function
  | Layout.Cell.Immune_new -> "new"
  | Layout.Cell.Immune_old -> "old"
  | Layout.Cell.Vulnerable -> "vulnerable"
  | Layout.Cell.Cmos -> "cmos"

let style_of_string = function
  | "new" -> Some Layout.Cell.Immune_new
  | "old" -> Some Layout.Cell.Immune_old
  | "vulnerable" -> Some Layout.Cell.Vulnerable
  | "cmos" -> Some Layout.Cell.Cmos
  | _ -> None

let source_describe = function
  | Full_adder -> "full_adder"
  | Ripple bits -> Printf.sprintf "ripple%d" bits
  | Netlist_text _ -> "netlist"
  | Generated spec -> "generated:" ^ spec

let describe = function
  | Flow j ->
    Printf.sprintf "flow %s scheme=%s aspect=%g" (source_describe j.source)
      (scheme_string j.scheme) j.aspect
  | Fault j ->
    Printf.sprintf "fault %s_%dX style=%s trials=%d" j.cell j.drive
      (style_string j.style) j.trials
  | Characterize j ->
    Printf.sprintf "characterize %s_%dX loads=%s" j.char_cell j.char_drive
      (String.concat "," (List.map string_of_int j.loads))
  | Testgen j ->
    Printf.sprintf "testgen %s_%dX style=%s scheme=%s trials=%d" j.tg_cell
      j.tg_drive (style_string j.tg_style)
      (scheme_string j.tg_scheme)
      j.tg_trials
  | Dse j ->
    Printf.sprintf "dse %s style=%s grid=%dx%dx%dx%dx%d %s" j.dse_cell
      (style_string j.dse_style)
      (List.length j.dse_pitches)
      (List.length j.dse_p_metallic)
      (List.length j.dse_removal)
      (List.length j.dse_drives)
      (List.length j.dse_schemes)
      (if j.dse_adaptive then "adaptive" else "exhaustive")

let stage = "service.job"

(* The engine owns the knob-space semantics; a dse job is validated by
   building the very config {!Runner} will run. *)
let dse_config (j : dse_job) =
  let scheme_of = function
    | `S1 -> Layout.Cell.Scheme1
    | `S2 -> Layout.Cell.Scheme2
  in
  let base = Dse.Engine.default ~cell:j.dse_cell in
  {
    base with
    Dse.Engine.style = j.dse_style;
    space =
      {
        Dse.Knobs.pitches_nm = Array.of_list j.dse_pitches;
        p_metallic = Array.of_list j.dse_p_metallic;
        removal_eff = Array.of_list j.dse_removal;
        drives = Array.of_list j.dse_drives;
        schemes = Array.of_list (List.map scheme_of j.dse_schemes);
      };
    load = j.dse_load;
    max_trials = j.dse_max_trials;
    min_trials = min base.Dse.Engine.min_trials j.dse_max_trials;
    batch = min base.Dse.Engine.batch j.dse_max_trials;
    seed = j.dse_seed;
    adaptive = j.dse_adaptive;
  }

(* the injector's range: a NaN or infinite angle sprays NaN tracks *)
let angle_ok kind a =
  if a >= 0. && a <= 90. then Ok ()
  else
    Core.Diag.failf ~stage
      ~context:[ ("max_angle_deg", string_of_float a) ]
      "%s job: max_angle_deg must be a finite angle in [0, 90]" kind

let validate = function
  | Flow j ->
    if j.aspect <= 0. || not (Float.is_finite j.aspect) then
      Core.Diag.failf ~stage
        ~context:[ ("aspect", string_of_float j.aspect) ]
        "flow job: aspect must be positive and finite"
    else (
      match j.source with
      | Ripple bits when bits < 1 || bits > 64 ->
        Core.Diag.failf ~stage
          ~context:[ ("bits", string_of_int bits) ]
          "flow job: ripple bits must be in 1..64"
      | Netlist_text "" ->
        Core.Diag.fail ~stage "flow job: empty netlist text"
      | Generated "" ->
        Core.Diag.fail ~stage "flow job: empty design spec"
      | _ -> Ok ())
  | Fault j ->
    if Logic.Cell_fun.find_opt j.cell = None then
      Core.Diag.failf ~stage
        ~context:[ ("cell", j.cell) ]
        "fault job: unknown cell function %s" j.cell
    else if j.drive < 1 then
      Core.Diag.failf ~stage
        ~context:[ ("drive", string_of_int j.drive) ]
        "fault job: drive must be positive"
    else if j.trials <= 0 then
      Core.Diag.failf ~stage
        ~context:[ ("trials", string_of_int j.trials) ]
        "fault job: trials must be positive"
    else if j.tracks_per_trial < 0 then
      Core.Diag.failf ~stage
        ~context:[ ("tracks_per_trial", string_of_int j.tracks_per_trial) ]
        "fault job: tracks_per_trial must be non-negative"
    else angle_ok "fault" j.max_angle_deg
  | Characterize j ->
    if Logic.Cell_fun.find_opt j.char_cell = None then
      Core.Diag.failf ~stage
        ~context:[ ("cell", j.char_cell) ]
        "characterize job: unknown cell function %s" j.char_cell
    else if j.char_drive < 1 then
      Core.Diag.failf ~stage
        ~context:[ ("drive", string_of_int j.char_drive) ]
        "characterize job: drive must be positive"
    else if j.loads = [] then
      Core.Diag.fail ~stage "characterize job: empty load sweep"
    else (
      match List.find_opt (fun l -> l < 0) j.loads with
      | Some l ->
        Core.Diag.failf ~stage
          ~context:[ ("load", string_of_int l) ]
          "characterize job: loads must be non-negative"
      | None -> Ok ())
  | Testgen j ->
    if Logic.Cell_fun.find_opt j.tg_cell = None then
      Core.Diag.failf ~stage
        ~context:[ ("cell", j.tg_cell) ]
        "testgen job: unknown cell function %s" j.tg_cell
    else if j.tg_drive < 1 then
      Core.Diag.failf ~stage
        ~context:[ ("drive", string_of_int j.tg_drive) ]
        "testgen job: drive must be positive"
    else if j.tg_trials <= 0 then
      Core.Diag.failf ~stage
        ~context:[ ("trials", string_of_int j.tg_trials) ]
        "testgen job: trials must be positive"
    else if j.tg_tracks_per_trial < 0 then
      Core.Diag.failf ~stage
        ~context:[ ("tracks_per_trial", string_of_int j.tg_tracks_per_trial) ]
        "testgen job: tracks_per_trial must be non-negative"
    else if j.tg_max_spares < 0 then
      Core.Diag.failf ~stage
        ~context:[ ("max_spares", string_of_int j.tg_max_spares) ]
        "testgen job: max_spares must be non-negative"
    else if
      j.tg_p_good < 0. || j.tg_p_good > 1.
      || not (Float.is_finite j.tg_p_good)
    then
      Core.Diag.failf ~stage
        ~context:[ ("p_good", string_of_float j.tg_p_good) ]
        "testgen job: p_good must lie in [0, 1]"
    else if j.tg_max_extra_tubes < 0 then
      Core.Diag.failf ~stage
        ~context:[ ("max_extra_tubes", string_of_int j.tg_max_extra_tubes) ]
        "testgen job: max_extra_tubes must be non-negative"
    else angle_ok "testgen" j.tg_max_angle_deg
  | Dse j ->
    if Logic.Cell_fun.find_opt j.dse_cell = None then
      Core.Diag.failf ~stage
        ~context:[ ("cell", j.dse_cell) ]
        "dse job: unknown cell function %s" j.dse_cell
    else if j.dse_max_trials > 20_000 then
      Core.Diag.failf ~stage
        ~context:[ ("max_trials", string_of_int j.dse_max_trials) ]
        "dse job: max_trials above the 20000 service budget"
    else Dse.Engine.validate (dse_config j)

(* The cache key: a stable fingerprint of every field that affects the
   result.  Flow jobs reuse the pipeline's own source digests so the
   service and a direct Flow.Pipeline run agree on input identity.
   Floats print as the JSON codec prints them, in the shortest form that
   round-trips, so jobs that differ in any bit of a float field never
   share a key (and a cached document). *)
let digest t =
  let num f = Json.to_string (Json.Num f) in
  let canonical =
    match t with
    | Flow j ->
      let src =
        match j.source with
        | Full_adder ->
          Flow.Pipeline.source_digest (`Netlist (Flow.Full_adder.netlist ()))
        | Ripple bits -> Printf.sprintf "ripple:%d" bits
        | Netlist_text text -> Flow.Pipeline.source_digest (`Text text)
        | Generated spec -> "generated:" ^ spec
      in
      Printf.sprintf "flow:%s:%s:%s" src (scheme_string j.scheme) (num j.aspect)
    | Fault j ->
      Printf.sprintf "fault:%s:%d:%s:%d:%d:%s:%d" j.cell j.drive
        (style_string j.style) j.trials j.tracks_per_trial
        (num j.max_angle_deg) j.seed
    | Characterize j ->
      Printf.sprintf "characterize:%s:%d:%s" j.char_cell j.char_drive
        (String.concat "," (List.map string_of_int j.loads))
    | Testgen j ->
      Printf.sprintf "testgen:%s:%d:%s:%s:%d:%d:%s:%d:%d:%s:%d" j.tg_cell
        j.tg_drive (style_string j.tg_style)
        (scheme_string j.tg_scheme)
        j.tg_trials j.tg_tracks_per_trial (num j.tg_max_angle_deg) j.tg_seed
        j.tg_max_spares (num j.tg_p_good) j.tg_max_extra_tubes
    | Dse j ->
      let floats xs = String.concat "," (List.map num xs) in
      let ints xs = String.concat "," (List.map string_of_int xs) in
      Printf.sprintf "dse:%s:%s:%s:%s:%s:%s:%s:%d:%d:%d:%b" j.dse_cell
        (style_string j.dse_style)
        (floats j.dse_pitches)
        (floats j.dse_p_metallic)
        (floats j.dse_removal) (ints j.dse_drives)
        (String.concat "," (List.map scheme_string j.dse_schemes))
        j.dse_load j.dse_max_trials j.dse_seed j.dse_adaptive
  in
  kind t ^ "-" ^ Digest.to_hex (Digest.string canonical)

let to_json t =
  match t with
  | Flow j ->
    let source_fields =
      match j.source with
      | Full_adder -> [ ("design", Json.Str "full_adder") ]
      | Ripple bits -> [ ("design", Json.Str "ripple"); ("bits", Json.int bits) ]
      | Netlist_text text ->
        [ ("design", Json.Str "netlist"); ("text", Json.Str text) ]
      | Generated spec ->
        [ ("design", Json.Str "generated"); ("spec", Json.Str spec) ]
    in
    Json.Obj
      ((("kind", Json.Str "flow") :: source_fields)
      @ [
          ("scheme", Json.Str (scheme_string j.scheme));
          ("aspect", Json.Num j.aspect);
        ])
  | Fault j ->
    Json.Obj
      [
        ("kind", Json.Str "fault");
        ("cell", Json.Str j.cell);
        ("drive", Json.int j.drive);
        ("style", Json.Str (style_string j.style));
        ("trials", Json.int j.trials);
        ("tracks_per_trial", Json.int j.tracks_per_trial);
        ("max_angle_deg", Json.Num j.max_angle_deg);
        ("seed", Json.int j.seed);
      ]
  | Characterize j ->
    Json.Obj
      [
        ("kind", Json.Str "characterize");
        ("cell", Json.Str j.char_cell);
        ("drive", Json.int j.char_drive);
        ("loads", Json.Arr (List.map Json.int j.loads));
      ]
  | Testgen j ->
    Json.Obj
      [
        ("kind", Json.Str "testgen");
        ("cell", Json.Str j.tg_cell);
        ("drive", Json.int j.tg_drive);
        ("style", Json.Str (style_string j.tg_style));
        ("scheme", Json.Str (scheme_string j.tg_scheme));
        ("trials", Json.int j.tg_trials);
        ("tracks_per_trial", Json.int j.tg_tracks_per_trial);
        ("max_angle_deg", Json.Num j.tg_max_angle_deg);
        ("seed", Json.int j.tg_seed);
        ("max_spares", Json.int j.tg_max_spares);
        ("p_good", Json.Num j.tg_p_good);
        ("max_extra_tubes", Json.int j.tg_max_extra_tubes);
      ]
  | Dse j ->
    Json.Obj
      [
        ("kind", Json.Str "dse");
        ("cell", Json.Str j.dse_cell);
        ("style", Json.Str (style_string j.dse_style));
        ("pitches", Json.Arr (List.map (fun v -> Json.Num v) j.dse_pitches));
        ( "p_metallic",
          Json.Arr (List.map (fun v -> Json.Num v) j.dse_p_metallic) );
        ("removal", Json.Arr (List.map (fun v -> Json.Num v) j.dse_removal));
        ("drives", Json.Arr (List.map Json.int j.dse_drives));
        ( "schemes",
          Json.Arr
            (List.map (fun s -> Json.Str (scheme_string s)) j.dse_schemes) );
        ("load", Json.int j.dse_load);
        ("max_trials", Json.int j.dse_max_trials);
        ("seed", Json.int j.dse_seed);
        ("adaptive", Json.Bool j.dse_adaptive);
      ]

(* Decoding helpers: each accessor failure names the member, so protocol
   errors pin down exactly which field was missing or ill-typed. *)

let get_field name conv what j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None ->
    Core.Diag.failf ~stage:"service.protocol"
      ~context:[ ("member", name) ]
      "job: missing or ill-typed member %S (expected %s)" name what

let get_default name conv what default j =
  match Json.member name j with
  | None -> Ok default
  | Some _ -> get_field name conv what j

let ( let* ) = Result.bind

let of_json j =
  let* k = get_field "kind" Json.to_str "string" j in
  match k with
  | "flow" ->
    let* design = get_default "design" Json.to_str "string" "full_adder" j in
    let* source =
      match design with
      | "full_adder" -> Ok Full_adder
      | "ripple" ->
        let* bits = get_default "bits" Json.to_int "int" 8 j in
        Ok (Ripple bits)
      | "netlist" ->
        let* text = get_field "text" Json.to_str "string" j in
        Ok (Netlist_text text)
      | "generated" ->
        let* spec = get_field "spec" Json.to_str "string" j in
        Ok (Generated spec)
      | other ->
        Core.Diag.failf ~stage:"service.protocol"
          ~context:[ ("design", other) ]
          "flow job: unknown design %S (expected full_adder, ripple, \
           netlist or generated)"
          other
    in
    let* scheme_s = get_default "scheme" Json.to_str "string" "s2" j in
    let* scheme =
      match String.lowercase_ascii scheme_s with
      | "s1" | "1" -> Ok `S1
      | "s2" | "2" -> Ok `S2
      | other ->
        Core.Diag.failf ~stage:"service.protocol"
          ~context:[ ("scheme", other) ]
          "flow job: unknown scheme %S (expected s1 or s2)" other
    in
    let* aspect = get_default "aspect" Json.to_float "number" 1.0 j in
    Ok (Flow { source; scheme; aspect })
  | "fault" ->
    let* cell = get_field "cell" Json.to_str "string" j in
    let* drive = get_default "drive" Json.to_int "int" 4 j in
    let* style_s = get_default "style" Json.to_str "string" "new" j in
    let* style =
      match style_of_string style_s with
      | Some s -> Ok s
      | None ->
        Core.Diag.failf ~stage:"service.protocol"
          ~context:[ ("style", style_s) ]
          "fault job: unknown style %S (expected new, old, vulnerable or \
           cmos)"
          style_s
    in
    let* trials = get_default "trials" Json.to_int "int" 1000 j in
    let* tracks_per_trial =
      get_default "tracks_per_trial" Json.to_int "int" 3 j
    in
    let* max_angle_deg =
      get_default "max_angle_deg" Json.to_float "number" 8.0 j
    in
    let* seed = get_default "seed" Json.to_int "int" 42 j in
    Ok
      (Fault
         { cell; drive; style; trials; tracks_per_trial; max_angle_deg; seed })
  | "characterize" ->
    let* char_cell = get_field "cell" Json.to_str "string" j in
    let* char_drive = get_default "drive" Json.to_int "int" 1 j in
    let* loads_json =
      get_default "loads" Json.to_list "array"
        [ Json.int 1; Json.int 2; Json.int 4 ]
        j
    in
    let* loads =
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          match Json.to_int x with
          | Some l -> Ok (l :: acc)
          | None ->
            Core.Diag.fail ~stage:"service.protocol"
              ~context:[ ("member", "loads") ]
              "characterize job: loads must be an array of ints")
        (Ok []) loads_json
      |> Result.map List.rev
    in
    Ok (Characterize { char_cell; char_drive; loads })
  | "testgen" ->
    let* tg_cell = get_field "cell" Json.to_str "string" j in
    let* tg_drive = get_default "drive" Json.to_int "int" 4 j in
    let* style_s = get_default "style" Json.to_str "string" "vulnerable" j in
    let* tg_style =
      match style_of_string style_s with
      | Some s -> Ok s
      | None ->
        Core.Diag.failf ~stage:"service.protocol"
          ~context:[ ("style", style_s) ]
          "testgen job: unknown style %S (expected new, old, vulnerable or \
           cmos)"
          style_s
    in
    let* scheme_s = get_default "scheme" Json.to_str "string" "s1" j in
    let* tg_scheme =
      match String.lowercase_ascii scheme_s with
      | "s1" | "1" -> Ok `S1
      | "s2" | "2" -> Ok `S2
      | other ->
        Core.Diag.failf ~stage:"service.protocol"
          ~context:[ ("scheme", other) ]
          "testgen job: unknown scheme %S (expected s1 or s2)" other
    in
    let* tg_trials = get_default "trials" Json.to_int "int" 1000 j in
    let* tg_tracks_per_trial =
      get_default "tracks_per_trial" Json.to_int "int" 3 j
    in
    let* tg_max_angle_deg =
      get_default "max_angle_deg" Json.to_float "number" 8.0 j
    in
    let* tg_seed = get_default "seed" Json.to_int "int" 42 j in
    let* tg_max_spares = get_default "max_spares" Json.to_int "int" 2 j in
    let* tg_p_good = get_default "p_good" Json.to_float "number" 0.9 j in
    let* tg_max_extra_tubes =
      get_default "max_extra_tubes" Json.to_int "int" 4 j
    in
    Ok
      (Testgen
         {
           tg_cell;
           tg_drive;
           tg_style;
           tg_scheme;
           tg_trials;
           tg_tracks_per_trial;
           tg_max_angle_deg;
           tg_seed;
           tg_max_spares;
           tg_p_good;
           tg_max_extra_tubes;
         })
  | "dse" ->
    let* dse_cell = get_field "cell" Json.to_str "string" j in
    let* style_s = get_default "style" Json.to_str "string" "vulnerable" j in
    let* dse_style =
      match style_of_string style_s with
      | Some s -> Ok s
      | None ->
        Core.Diag.failf ~stage:"service.protocol"
          ~context:[ ("style", style_s) ]
          "dse job: unknown style %S (expected new, old, vulnerable or cmos)"
          style_s
    in
    let number_list name default =
      let* xs =
        get_default name Json.to_list "array"
          (List.map (fun v -> Json.Num v) default)
          j
      in
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          match Json.to_float x with
          | Some v -> Ok (v :: acc)
          | None ->
            Core.Diag.failf ~stage:"service.protocol"
              ~context:[ ("member", name) ]
              "dse job: %s must be an array of numbers" name)
        (Ok []) xs
      |> Result.map List.rev
    in
    let* dse_pitches = number_list "pitches" [ 4.; 5.; 6.; 8. ] in
    let* dse_p_metallic = number_list "p_metallic" [ 0.01; 0.1; 0.33 ] in
    let* dse_removal = number_list "removal" [ 0.95; 0.999 ] in
    let* drives_json =
      get_default "drives" Json.to_list "array" [ Json.int 1; Json.int 2 ] j
    in
    let* dse_drives =
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          match Json.to_int x with
          | Some v -> Ok (v :: acc)
          | None ->
            Core.Diag.fail ~stage:"service.protocol"
              ~context:[ ("member", "drives") ]
              "dse job: drives must be an array of ints")
        (Ok []) drives_json
      |> Result.map List.rev
    in
    let* schemes_json =
      get_default "schemes" Json.to_list "array"
        [ Json.Str "s1"; Json.Str "s2" ]
        j
    in
    let* dse_schemes =
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          match Option.map String.lowercase_ascii (Json.to_str x) with
          | Some ("s1" | "1") -> Ok (`S1 :: acc)
          | Some ("s2" | "2") -> Ok (`S2 :: acc)
          | _ ->
            Core.Diag.fail ~stage:"service.protocol"
              ~context:[ ("member", "schemes") ]
              "dse job: schemes must be an array of \"s1\" / \"s2\"")
        (Ok []) schemes_json
      |> Result.map List.rev
    in
    let* dse_load = get_default "load" Json.to_int "int" 2 j in
    let* dse_max_trials = get_default "max_trials" Json.to_int "int" 400 j in
    let* dse_seed = get_default "seed" Json.to_int "int" 42 j in
    let* dse_adaptive = get_default "adaptive" Json.to_bool "bool" true j in
    Ok
      (Dse
         {
           dse_cell;
           dse_style;
           dse_pitches;
           dse_p_metallic;
           dse_removal;
           dse_drives;
           dse_schemes;
           dse_load;
           dse_max_trials;
           dse_seed;
           dse_adaptive;
         })
  | other ->
    Core.Diag.failf ~stage:"service.protocol"
      ~context:[ ("kind", other) ]
      "job: unknown kind %S (expected flow, fault, characterize, testgen or \
       dse)"
      other
