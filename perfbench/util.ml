(* Shared plumbing of the in-process benchmark: wall-clock timing, peak
   memory, seeded choices and the JSON that run.py reads. *)

module Json = Service.Json

let now = Unix.gettimeofday

(* [time f] is [(f (), seconds spent)]. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let num x = Json.Num x
let int = Json.int
let str s = Json.Str s
let nums xs = Json.Arr (List.map num xs)

(* One JSON document per line on stdout; run.py reads the last one. *)
let emit j =
  print_endline (Json.to_string j);
  flush stdout

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("bench: " ^ m); exit 2) fmt

let ok_or_fail what = function
  | Ok v -> v
  | Error d -> fail "%s: %s" what (Core.Diag.to_string d)

(* VmHWM of this process in kB: the peak resident set since exec. *)
let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Restart the VmHWM count from the current resident set (Linux
   clear_refs), so a later [peak_rss_kb] covers only the work in between. *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

(* Seeded stream for one purpose of one run: the same (seed, salt) gives
   the same draws, and different salts are independent. *)
let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let digest_json j = Digest.to_hex (Digest.string (Json.to_string j))

(* Command line: a mode followed by key=value pairs. *)
let args () =
  let kv =
    Array.to_list Sys.argv
    |> List.tl
    |> List.filter_map (fun a ->
           match String.index_opt a '=' with
           | Some i ->
             Some (String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1))
           | None -> None)
  in
  let get k =
    match List.assoc_opt k kv with
    | Some v -> v
    | None -> fail "missing argument %s=..." k
  in
  let get_int k =
    match int_of_string_opt (get k) with
    | Some n -> n
    | None -> fail "argument %s is not an integer" k
  in
  (get, get_int)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.(n / 2 - 1) +. a.(n / 2)) /. 2.

(* The median time of [reps] runs of a set-up step, each from a freshly
   collected heap so that earlier repetitions' garbage does not bill later
   ones. *)
let setup_time ~reps f =
  median
    (List.init reps (fun _ ->
         Gc.full_major ();
         snd (time f)))

(* Run [f 0], [f 1], ... as whole cycles of work: the first always runs,
   another only while the last cycle's duration still fits in [seconds].
   Every cycle does the same work, so the reported rates do not depend on
   where the time budget fell. *)
let cycles ~seconds f =
  let start = now () in
  let rec go k acc =
    let r, dt = time (fun () -> f k) in
    let acc = (r, dt) :: acc in
    if now () -. start +. dt <= seconds then go (k + 1) acc else List.rev acc
  in
  go 0 []
