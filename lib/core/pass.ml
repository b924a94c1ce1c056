(* A universal type lets the heterogeneous artifact cache store any stage
   artifact behind one type.  Each pass allocates its own embedding (a fresh
   exception constructor over its output type) when it is created, which is
   why cache hits require the pass value itself to be long-lived. *)
type univ = exn

type ('a, 'b) t = {
  name : string;
  run : 'a -> ('b, Diag.t) result;
  digest : ('a -> string) option;
  counters : ('b -> (string * int) list) option;
  refresh : ('a -> 'b -> 'b) option;
  inject : 'b -> univ;
  project : univ -> 'b option;
}

let make (type a b) ?digest ?counters ?refresh ~name
    (run : a -> (b, Diag.t) result) : (a, b) t =
  let module M = struct
    exception Artifact of b
  end in
  let inject x = M.Artifact x in
  let project = function M.Artifact x -> Some x | _ -> None in
  { name; run; digest; counters; refresh; inject; project }

type ('a, 'b) pipeline =
  | Pass : ('a, 'b) t -> ('a, 'b) pipeline
  | Seq : ('a, 'b) pipeline * ('b, 'c) t -> ('a, 'c) pipeline

let pass p = Pass p
let ( >>> ) pl p = Seq (pl, p)

let rec names : type a b. (a, b) pipeline -> string list = function
  | Pass p -> [ p.name ]
  | Seq (pl, p) -> names pl @ [ p.name ]

type pass_report = {
  pass_name : string;
  wall_s : float;
  cached : bool;
  counters : (string * int) list;
}

type report = { passes : pass_report list; total_s : float }

type trace_event =
  | Enter of string
  | Exit of string * float * (string * int) list
  | Cache_hit of string * (string * int) list
  | Failed of string * Diag.t

let counters_to_string = function
  | [] -> ""
  | cs ->
    " "
    ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs)

let trace_event_to_string = function
  | Enter n -> Printf.sprintf "-> %s" n
  | Exit (n, s, cs) ->
    Printf.sprintf "<- %s (%.3f ms) cached=no%s" n (1000. *. s)
      (counters_to_string cs)
  | Cache_hit (n, cs) ->
    Printf.sprintf "== %s cached=yes%s" n (counters_to_string cs)
  | Failed (n, d) -> Printf.sprintf "!! %s: %s" n (Diag.to_string d)

type cache = (string, string * univ) Hashtbl.t

let cache_create () : cache = Hashtbl.create 7

let cache_entries (c : cache) =
  Hashtbl.fold (fun name (digest, _) acc -> (name, digest) :: acc) c []

let no_trace (_ : trace_event) = ()

(* Run one instrumented pass: consult the cache when the pass has a digest
   function, otherwise just run and time it.  The key is computed once,
   for both the lookup and the store. *)
let step (type a b) ?cache ~trace (p : (a, b) t) (x : a) :
    (b, Diag.t) result * pass_report =
  let key =
    match (cache, p.digest) with
    | Some c, Some digest -> Some (c, digest x)
    | _ -> None
  in
  let cached_artifact =
    match key with
    | Some (c, d) -> (
      match Hashtbl.find_opt c p.name with
      | Some (d', v) when String.equal d d' ->
        (* A project failure means the entry was written by a different
           incarnation of this pass; treat it as a miss. *)
        p.project v
      | _ -> None)
    | None -> None
  in
  match cached_artifact with
  | Some artifact ->
    (* A digest hit only certifies the digested part of the input; the
       artifact may still embed undigested context (e.g. downstream flow
       parameters threaded through it).  [refresh] reconciles the cached
       artifact with the current input before anything downstream sees it. *)
    let artifact =
      match p.refresh with Some f -> f x artifact | None -> artifact
    in
    let counters =
      match p.counters with Some f -> f artifact | None -> []
    in
    trace (Cache_hit (p.name, counters));
    (Ok artifact, { pass_name = p.name; wall_s = 0.; cached = true; counters })
  | None -> (
    trace (Enter p.name);
    let t0 = Unix.gettimeofday () in
    let result = p.run x in
    let wall_s = Unix.gettimeofday () -. t0 in
    match result with
    | Ok artifact ->
      Option.iter
        (fun (c, d) -> Hashtbl.replace c p.name (d, p.inject artifact))
        key;
      let counters =
        match p.counters with Some f -> f artifact | None -> []
      in
      trace (Exit (p.name, wall_s, counters));
      (Ok artifact, { pass_name = p.name; wall_s; cached = false; counters })
    | Error d ->
      trace (Failed (p.name, d));
      ( Error (Diag.with_context [ ("pass", p.name) ] d),
        { pass_name = p.name; wall_s; cached = false; counters = [] } ))

let execute (type a b) ?cache ?(trace = no_trace) (pl : (a, b) pipeline)
    (input : a) : (b, Diag.t) result * report =
  let t0 = Unix.gettimeofday () in
  let rec go : type a b.
      (a, b) pipeline -> a -> (b, Diag.t) result * pass_report list =
   fun pl x ->
    match pl with
    | Pass p ->
      let r, pr = step ?cache ~trace p x in
      (r, [ pr ])
    | Seq (rest, p) -> (
      match go rest x with
      | (Error _ as e), prs -> (e, prs)
      | Ok y, prs ->
        let r, pr = step ?cache ~trace p y in
        (r, prs @ [ pr ]))
  in
  let result, passes = go pl input in
  (result, { passes; total_s = Unix.gettimeofday () -. t0 })

let report_to_text r =
  let buf = Buffer.create 256 in
  let name_w =
    List.fold_left (fun w p -> max w (String.length p.pass_name)) 4 r.passes
  in
  Buffer.add_string buf
    (Printf.sprintf "%-*s  %10s  %6s  %s\n" name_w "pass" "wall-ms" "cached"
       "counters");
  List.iter
    (fun p ->
      let counters =
        p.counters
        |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
        |> String.concat " "
      in
      Buffer.add_string buf
        (Printf.sprintf "%-*s  %10.3f  %6s  %s\n" name_w p.pass_name
           (1000. *. p.wall_s)
           (if p.cached then "yes" else "no")
           counters))
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
        ("cached", Json.Bool p.cached);
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
