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

let cell_scheme = function
  | `S1 -> Layout.Cell.Scheme1
  | `S2 -> Layout.Cell.Scheme2

let scheme_string s = Layout.Cell.scheme_string (cell_scheme s)
let style_string = Layout.Cell.style_string

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

let injector ~trials ~tracks_per_trial ~max_angle_deg ~seed =
  {
    Fault.Injector.default_config with
    Fault.Injector.trials;
    tracks_per_trial;
    max_angle_deg;
    seed;
  }

let fault_config (j : fault_job) =
  injector ~trials:j.trials ~tracks_per_trial:j.tracks_per_trial
    ~max_angle_deg:j.max_angle_deg ~seed:j.seed

let testgen_config (j : testgen_job) =
  {
    Testgen.Campaign.fault =
      injector ~trials:j.tg_trials ~tracks_per_trial:j.tg_tracks_per_trial
        ~max_angle_deg:j.tg_max_angle_deg ~seed:j.tg_seed;
    max_spares = j.tg_max_spares;
    p_good = j.tg_p_good;
    max_extra_tubes = j.tg_max_extra_tubes;
  }

(* The engine owns the knob-space semantics; a dse job is validated by
   building the very config {!Runner} will run. *)
let dse_config (j : dse_job) =
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
        schemes = Array.of_list (List.map cell_scheme j.dse_schemes);
      };
    load = j.dse_load;
    max_trials = j.dse_max_trials;
    min_trials = min base.Dse.Engine.min_trials j.dse_max_trials;
    batch = min base.Dse.Engine.batch j.dse_max_trials;
    seed = j.dse_seed;
    adaptive = j.dse_adaptive;
  }

let ( let* ) = Result.bind

(* The service's budgets: each bounds how long one admitted job can
   hold the scheduler.  Characterization time grows linearly with the
   load. *)
let max_trials = 1_000_000
let max_dse_trials = 20_000
let max_load = 64
let max_loads = 16

let over_budget ~kind ~member ~budget n =
  Core.Diag.failf ~stage
    ~context:[ (member, string_of_int n) ]
    "%s job: %s above the %d service budget" kind member budget

(* Only the service's own budgets are decided here.  Every other rule is
   asked of the module that owns it, on the config {!Runner} runs, and
   its diagnostic is re-staged (keeping the owner as its origin). *)
let validate job =
  let owner r = Result.map_error (Core.Diag.with_stage stage) r in
  match job with
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
      | Generated spec -> owner (Result.map ignore (Flow.Generate.parse spec))
      | _ -> Ok ())
  | Fault j when j.trials > max_trials ->
    over_budget ~kind:"fault" ~member:"trials" ~budget:max_trials j.trials
  | Fault j ->
    owner
      (let* _ = Layout.Cell.lookup ~name:j.cell ~drive:j.drive in
       Fault.Injector.validate (fault_config j))
  | Characterize j when List.length j.loads > max_loads ->
    over_budget ~kind:"characterize" ~member:"loads" ~budget:max_loads
      (List.length j.loads)
  | Characterize j -> (
    match List.find_opt (fun l -> l > max_load) j.loads with
    | Some l ->
      over_budget ~kind:"characterize" ~member:"load" ~budget:max_load l
    | None ->
      owner
        (let* _ =
           Stdcell.Library.offers ~name:j.char_cell ~drive:j.char_drive
         in
         Stdcell.Characterize.check_loads ~cell:j.char_cell j.loads))
  | Testgen j when j.tg_trials > max_trials ->
    over_budget ~kind:"testgen" ~member:"trials" ~budget:max_trials j.tg_trials
  | Testgen j ->
    owner
      (let* _ = Layout.Cell.lookup ~name:j.tg_cell ~drive:j.tg_drive in
       Testgen.Campaign.validate (testgen_config j))
  | Dse j when j.dse_max_trials > max_dse_trials ->
    over_budget ~kind:"dse" ~member:"max_trials" ~budget:max_dse_trials
      j.dse_max_trials
  | Dse j when j.dse_load > max_load ->
    over_budget ~kind:"dse" ~member:"load" ~budget:max_load j.dse_load
  | Dse j ->
    owner
      (let* () = Dse.Engine.validate (dse_config j) in
       (* the engine characterizes the cell at every drive of the axis *)
       List.fold_left
         (fun acc drive ->
           let* () = acc in
           Result.map ignore (Stdcell.Library.offers ~name:j.dse_cell ~drive))
         (Ok ()) j.dse_drives)

(* The cache key: a stable fingerprint of every field that affects the
   result.  A flow job's source enters as the netlist digest the
   pipeline keys its passes on, or as the digest of its netlist text.
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
        | Full_adder -> Flow.Netlist_ir.digest (Flow.Full_adder.netlist ())
        | Ripple bits -> Printf.sprintf "ripple:%d" bits
        | Netlist_text text -> Digest.to_hex (Digest.string text)
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

(* Decoding helpers: each failure names the member, so protocol errors
   pin down exactly which field was missing or ill-typed.  An absent
   optional member decodes to [None], leaving its default to the job
   constructors above. *)

let protocol = "service.protocol"

let ill_typed name what =
  Core.Diag.failf ~stage:protocol
    ~context:[ ("member", name) ]
    "job: missing or ill-typed member %S (expected %s)" name what

let req name conv what j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> ill_typed name what

let opt name conv what j =
  match Json.member name j with
  | None -> Ok None
  | Some v -> (
    match conv v with Some x -> Ok (Some x) | None -> ill_typed name what)

(* an optional string member that must name one of a closed set *)
let opt_enum name conv parse ~expected ~kind j =
  let* s = opt name conv "string" j in
  match s with
  | None -> Ok None
  | Some s -> (
    match parse s with
    | Some v -> Ok (Some v)
    | None ->
      Core.Diag.failf ~stage:protocol ~context:[ (name, s) ]
        "%s job: unknown %s %S (expected %s)" kind name s expected)

(* schemes are case-insensitive on the wire, styles are not *)
let lowercase v = Option.map String.lowercase_ascii (Json.to_str v)

let scheme_of_string = function
  | "s1" | "1" -> Some `S1
  | "s2" | "2" -> Some `S2
  | _ -> None

let style =
  opt_enum "style" Json.to_str (fun s -> List.assoc_opt s Layout.Cell.styles)
    ~expected:"new, old, vulnerable or cmos"

let scheme = opt_enum "scheme" lowercase scheme_of_string ~expected:"s1 or s2"

let list name conv what ~kind j =
  let* xs = opt name Json.to_list "array" j in
  match xs with
  | None -> Ok None
  | Some xs ->
    let vs = List.filter_map conv xs in
    if List.compare_lengths vs xs = 0 then Ok (Some vs)
    else
      Core.Diag.failf ~stage:protocol
        ~context:[ ("member", name) ]
        "%s job: %s must be an array of %s" kind name what

let of_json j =
  let int name = opt name Json.to_int "int" j in
  let num name = opt name Json.to_float "number" j in
  let str name = req name Json.to_str "string" j in
  let* kind = str "kind" in
  match kind with
  | "flow" ->
    let* design = opt "design" Json.to_str "string" j in
    let* source =
      match Option.value design ~default:"full_adder" with
      | "full_adder" -> Ok Full_adder
      | "ripple" ->
        let* bits = int "bits" in
        Ok (Ripple (Option.value bits ~default:8))
      | "netlist" -> Result.map (fun t -> Netlist_text t) (str "text")
      | "generated" -> Result.map (fun s -> Generated s) (str "spec")
      | other ->
        Core.Diag.failf ~stage:protocol
          ~context:[ ("design", other) ]
          "flow job: unknown design %S (expected full_adder, ripple, \
           netlist or generated)"
          other
    in
    let* scheme = scheme ~kind j in
    let* aspect = num "aspect" in
    Ok (flow ?scheme ?aspect source)
  | "fault" ->
    let* cell = str "cell" in
    let* drive = int "drive" in
    let* style = style ~kind j in
    let* trials = int "trials" in
    let* tracks_per_trial = int "tracks_per_trial" in
    let* max_angle_deg = num "max_angle_deg" in
    let* seed = int "seed" in
    Ok (fault ?drive ?style ?trials ?tracks_per_trial ?max_angle_deg ?seed cell)
  | "characterize" ->
    let* cell = str "cell" in
    let* drive = int "drive" in
    let* loads = list "loads" Json.to_int "ints" ~kind j in
    Ok (characterize ?drive ?loads cell)
  | "testgen" ->
    let* cell = str "cell" in
    let* drive = int "drive" in
    let* style = style ~kind j in
    let* scheme = scheme ~kind j in
    let* trials = int "trials" in
    let* tracks_per_trial = int "tracks_per_trial" in
    let* max_angle_deg = num "max_angle_deg" in
    let* seed = int "seed" in
    let* max_spares = int "max_spares" in
    let* p_good = num "p_good" in
    let* max_extra_tubes = int "max_extra_tubes" in
    Ok
      (testgen ?drive ?style ?scheme ?trials ?tracks_per_trial ?max_angle_deg
         ?seed ?max_spares ?p_good ?max_extra_tubes cell)
  | "dse" ->
    let* cell = str "cell" in
    let* style = style ~kind j in
    let numbers name = list name Json.to_float "numbers" ~kind j in
    let* pitches = numbers "pitches" in
    let* p_metallic = numbers "p_metallic" in
    let* removal = numbers "removal" in
    let* drives = list "drives" Json.to_int "ints" ~kind j in
    let* schemes =
      list "schemes"
        (fun x -> Option.bind (lowercase x) scheme_of_string)
        "\"s1\" / \"s2\"" ~kind j
    in
    let* load = int "load" in
    let* max_trials = int "max_trials" in
    let* seed = int "seed" in
    let* adaptive = opt "adaptive" Json.to_bool "bool" j in
    Ok
      (dse ?style ?pitches ?p_metallic ?removal ?drives ?schemes ?load
         ?max_trials ?seed ?adaptive cell)
  | other ->
    Core.Diag.failf ~stage:protocol
      ~context:[ ("kind", other) ]
      "job: unknown kind %S (expected flow, fault, characterize, testgen or \
       dse)"
      other
