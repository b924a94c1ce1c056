type space = {
  pitches_nm : float array;
  p_metallic : float array;
  removal_eff : float array;
  drives : int array;
  schemes : Layout.Cell.scheme array;
}

type point = {
  pitch_nm : float;
  p_metallic : float;
  removal_eff : float;
  drive : int;
  scheme : Layout.Cell.scheme;
}

let default_space =
  {
    pitches_nm = [| 4.; 5.; 6.; 8. |];
    p_metallic = [| 0.01; 0.1; 0.33 |];
    removal_eff = [| 0.95; 0.999 |];
    drives = [| 1; 2 |];
    schemes = [| Layout.Cell.Scheme1; Layout.Cell.Scheme2 |];
  }

let sorted_unique compare a =
  Array.to_list a |> List.sort_uniq compare |> Array.of_list

let canonical s =
  {
    pitches_nm = sorted_unique Float.compare s.pitches_nm;
    p_metallic = sorted_unique Float.compare s.p_metallic;
    removal_eff = sorted_unique Float.compare s.removal_eff;
    drives = sorted_unique Int.compare s.drives;
    schemes = sorted_unique Stdlib.compare s.schemes;
  }

let validate s =
  let ( let* ) = Result.bind in
  let fail fmt = Core.Diag.failf ~stage:"dse.knobs" ~context:[] fmt in
  let check_axis name a present =
    if Array.length a = 0 then fail "axis %s is empty" name
    else
      Array.to_list a
      |> List.fold_left
           (fun acc v ->
             let* () = acc in
             present name v)
           (Ok ())
  in
  let pitch_ok name v =
    if v > 0. && Float.is_finite v then Ok ()
    else fail "axis %s: pitch %g must be positive and finite" name v
  in
  let frac_ok name v =
    if v >= 0. && v <= 1. then Ok ()
    else fail "axis %s: fraction %g must lie in [0, 1]" name v
  in
  let drive_ok name v =
    if v >= 1 then Ok () else fail "axis %s: drive %d must be >= 1" name v
  in
  let* () = check_axis "pitches_nm" s.pitches_nm pitch_ok in
  let* () = check_axis "p_metallic" s.p_metallic frac_ok in
  let* () = check_axis "removal_eff" s.removal_eff frac_ok in
  let* () = check_axis "drives" s.drives drive_ok in
  check_axis "schemes" s.schemes (fun _ _ -> Ok ())

let axes s =
  [|
    Array.length s.pitches_nm;
    Array.length s.p_metallic;
    Array.length s.removal_eff;
    Array.length s.drives;
    Array.length s.schemes;
  |]

let card s = Array.fold_left ( * ) 1 (axes s)

let check_index s idx =
  let dims = axes s in
  if Array.length idx <> Array.length dims then
    invalid_arg
      (Printf.sprintf "Dse.Knobs: index vector has %d axes, space has %d"
         (Array.length idx) (Array.length dims));
  Array.iteri
    (fun a i ->
      if i < 0 || i >= dims.(a) then
        invalid_arg
          (Printf.sprintf "Dse.Knobs: axis %d index %d out of [0, %d)" a i
             dims.(a)))
    idx

let ordinal s idx =
  check_index s idx;
  let dims = axes s in
  let o = ref 0 in
  for a = 0 to Array.length dims - 1 do
    o := (!o * dims.(a)) + idx.(a)
  done;
  !o

let index_of_ordinal s o =
  let dims = axes s in
  if o < 0 || o >= card s then
    invalid_arg
      (Printf.sprintf "Dse.Knobs: ordinal %d out of [0, %d)" o (card s));
  let idx = Array.make (Array.length dims) 0 in
  let rest = ref o in
  for a = Array.length dims - 1 downto 0 do
    idx.(a) <- !rest mod dims.(a);
    rest := !rest / dims.(a)
  done;
  idx

let point_of_index s idx =
  check_index s idx;
  {
    pitch_nm = s.pitches_nm.(idx.(0));
    p_metallic = s.p_metallic.(idx.(1));
    removal_eff = s.removal_eff.(idx.(2));
    drive = s.drives.(idx.(3));
    scheme = s.schemes.(idx.(4));
  }

let level_indices n level =
  if n <= 0 then
    invalid_arg (Printf.sprintf "Dse.Knobs.level_indices: size %d <= 0" n);
  if level < 0 then
    invalid_arg (Printf.sprintf "Dse.Knobs.level_indices: level %d < 0" level);
  let step = 1 lsl level in
  let rec collect i acc = if i >= n then acc else collect (i + step) (i :: acc) in
  let multiples = collect 0 [] in
  List.sort_uniq Int.compare ((n - 1) :: multiples)

let max_level s =
  (* smallest l with 2^l >= n - 1 for every axis: only the endpoints stay *)
  let need n =
    let rec go l = if 1 lsl l >= max 1 (n - 1) then l else go (l + 1) in
    go 0
  in
  Array.fold_left (fun acc n -> max acc (need n)) 0 (axes s)
