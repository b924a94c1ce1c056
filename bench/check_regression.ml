(* check_regression: compare a fresh BENCH_*.json against a committed
   baseline and fail on a real throughput regression — the ROADMAP perf
   ratchet, run by CI after every bench smoke.

       check_regression BASELINE FRESH [--threshold PCT] [--absolute]

   Both files are the flat [{name, wall_ms, throughput, extras}] arrays
   every bench writes through Bench_json.  Entries are matched by name;
   names present on only one side are reported but do not fail the check
   (CI runs a smaller smoke than the committed full run, so the baseline
   legitimately has extra entries).

   The default comparison is {e normalized}: per shared name the ratio
   fresh/baseline is computed, and an entry fails when its ratio falls
   more than the threshold below the {e median} ratio.  The median
   absorbs a uniformly slower (or faster) machine — CI runners are not
   the laptop the baseline was recorded on — while a single entry that
   regressed relative to its peers still stands out.  An entry marked
   ["ratio": true] (on either side) holds a ratio of two timings from
   one run, which does not move with machine speed: it stays out of the
   median and is compared against 1.0, its own baseline.  [--absolute]
   compares every ratio against 1.0, for same-machine A/B runs.

   Exit codes: 0 ok, 1 regression, 2 usage or parse error. *)

let default_threshold = 0.15

let fail_usage () =
  prerr_endline
    "usage: check_regression BASELINE FRESH [--threshold PCT] [--absolute]";
  exit 2

let read_file path =
  match open_in_bin path with
  | exception Sys_error m ->
    Printf.eprintf "check_regression: %s\n" m;
    exit 2
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s

(* (name, (throughput, marked a ratio)), in document order *)
let entries_of path =
  match Core.Json.of_string (read_file path) with
  | Error msg ->
    Printf.eprintf "check_regression: %s: invalid JSON: %s\n" path msg;
    exit 2
  | Ok (Core.Json.Arr items) ->
    List.filter_map
      (fun item ->
        let ratio =
          Core.Json.member "ratio" item = Some (Core.Json.Bool true)
        in
        match
          ( Option.bind (Core.Json.member "name" item) Core.Json.to_str,
            Option.bind
              (Core.Json.member "throughput" item)
              Core.Json.to_float )
        with
        | Some name, Some thr when thr > 0. -> Some (name, (thr, ratio))
        | _ -> None)
      items
  | Ok _ ->
    Printf.eprintf "check_regression: %s: expected a JSON array\n" path;
    exit 2

let median xs =
  match List.sort compare xs with
  | [] -> 1.
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

let () =
  let threshold = ref default_threshold in
  let absolute = ref false in
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--absolute" :: rest ->
      absolute := true;
      parse rest
    | "--threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t > 0. && t < 1. ->
        threshold := t;
        parse rest
      | Some t when t >= 1. && t < 100. ->
        (* accept percent spelling: --threshold 15 means 15% *)
        threshold := t /. 100.;
        parse rest
      | _ -> fail_usage ())
    | s :: _ when String.length s > 0 && s.[0] = '-' ->
      Printf.eprintf "check_regression: unknown option %s\n" s;
      fail_usage ()
    | s :: rest ->
      positional := s :: !positional;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, fresh_path =
    match List.rev !positional with
    | [ b; f ] -> (b, f)
    | _ -> fail_usage ()
  in
  let baseline = entries_of baseline_path in
  let fresh = entries_of fresh_path in
  let shared =
    List.filter_map
      (fun (name, (fresh_thr, fresh_ratio)) ->
        Option.map
          (fun (base_thr, base_ratio) ->
            (name, base_thr, fresh_thr, base_ratio || fresh_ratio))
          (List.assoc_opt name baseline))
      fresh
  in
  if shared = [] then begin
    Printf.eprintf
      "check_regression: no shared entry names between %s and %s\n"
      baseline_path fresh_path;
    exit 2
  end;
  let only side names =
    if names <> [] then
      Printf.printf "note: %d entr%s only in %s (%s)\n" (List.length names)
        (if List.length names = 1 then "y" else "ies")
        side
        (String.concat ", " names)
  in
  only "baseline"
    (List.filter_map
       (fun (n, _) -> if List.mem_assoc n fresh then None else Some n)
       baseline);
  only "fresh run"
    (List.filter_map
       (fun (n, _) -> if List.mem_assoc n baseline then None else Some n)
       fresh);
  let ratios =
    List.filter_map
      (fun (_, b, f, ratio) -> if ratio then None else Some (f /. b))
      shared
  in
  let reference = if !absolute then 1.0 else median ratios in
  let floor = (1. -. !threshold) *. reference in
  Printf.printf
    "check_regression: %d shared entries, %s reference %.3f, floor %.3f \
     (threshold %.0f%%)\n"
    (List.length shared)
    (if !absolute then "absolute" else "median")
    reference floor
    (100. *. !threshold);
  let failures =
    List.filter
      (fun (name, base_thr, fresh_thr, ratio) ->
        let r = fresh_thr /. base_thr in
        let bad = r < if ratio then 1. -. !threshold else floor in
        Printf.printf "  %-40s base %12.1f  fresh %12.1f  ratio %.3f%s%s\n"
          name base_thr fresh_thr r
          (if ratio then "  (own baseline)" else "")
          (if bad then "  REGRESSION" else "");
        bad)
      shared
  in
  if failures <> [] then begin
    Printf.printf "check_regression: FAIL — %d of %d entries regressed >%.0f%% \
                   vs the %s reference\n"
      (List.length failures) (List.length shared) (100. *. !threshold)
      (if !absolute then "absolute" else "median");
    exit 1
  end
  else print_endline "check_regression: OK"
