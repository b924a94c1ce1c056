type pass_report = {
  pass_name : string;
  wall_s : float;
  counters : (string * int) list;
}

type report = { passes : pass_report list; total_s : float }

type trace_event =
  | Enter of string
  | Exit of string * float * (string * int) list
  | Failed of string * Diag.t

let counter (k, v) = Printf.sprintf "%s=%d" k v

let trace_event_to_string = function
  | Enter n -> Printf.sprintf "-> %s" n
  | Exit (n, s, cs) ->
    String.concat " "
      (Printf.sprintf "<- %s (%.3f ms)" n (1000. *. s) :: List.map counter cs)
  | Failed (n, d) -> Printf.sprintf "!! %s: %s" n (Diag.to_string d)

let step ~trace ~counters name run =
  trace (Enter name);
  let t0 = Unix.gettimeofday () in
  let result = run () in
  let wall_s = Unix.gettimeofday () -. t0 in
  match result with
  | Ok artifact ->
    let counters = counters artifact in
    trace (Exit (name, wall_s, counters));
    (Ok artifact, { pass_name = name; wall_s; counters })
  | Error d ->
    trace (Failed (name, d));
    ( Error (Diag.with_context [ ("pass", name) ] d),
      { pass_name = name; wall_s; counters = [] } )

let report_to_text r =
  let buf = Buffer.create 256 in
  let name_w =
    List.fold_left (fun w p -> max w (String.length p.pass_name)) 4 r.passes
  in
  Buffer.add_string buf
    (Printf.sprintf "%-*s  %10s  %s\n" name_w "pass" "wall-ms" "counters");
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%-*s  %10.3f  %s\n" name_w p.pass_name
           (1000. *. p.wall_s)
           (String.concat " " (List.map counter p.counters))))
    r.passes;
  Buffer.add_string buf
    (Printf.sprintf "%-*s  %10.3f\n" name_w "total" (1000. *. r.total_s));
  Buffer.contents buf

let report_to_json r =
  let pass_json p =
    Json.Obj
      [
        ("name", Json.Str p.pass_name);
        ("wall_s", Json.Num p.wall_s);
        ( "counters",
          Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) p.counters) );
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("total_s", Json.Num r.total_s);
         ("passes", Json.Arr (List.map pass_json r.passes));
       ])

type cache = unit

let cache_create () = ()
