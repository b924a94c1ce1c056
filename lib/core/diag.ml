type severity = Error | Warning | Info

type t = {
  stage : string;
  severity : severity;
  message : string;
  context : (string * string) list;
}

exception Failure of t

let make ?(severity = Error) ?(context = []) ~stage message =
  { stage; severity; message; context }

let error ?context ~stage message = make ?context ~severity:Error ~stage message

let errorf ?context ~stage fmt =
  Format.kasprintf (fun message -> error ?context ~stage message) fmt

let fail ?context ~stage message = Stdlib.Error (error ?context ~stage message)

let failf ?context ~stage fmt =
  Format.kasprintf (fun message -> fail ?context ~stage message) fmt

let with_context pairs d = { d with context = d.context @ pairs }

(* the innermost stage stays the only origin, however often [d] is
   re-staged: a second ["origin"] pair would be a duplicate JSON key *)
let with_stage stage d =
  if d.stage = stage then d
  else if List.mem_assoc "origin" d.context then { d with stage }
  else { d with stage; context = d.context @ [ ("origin", d.stage) ] }

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let to_string d =
  let ctx =
    match d.context with
    | [] -> ""
    | pairs ->
      " ("
      ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) pairs)
      ^ ")"
  in
  Printf.sprintf "%s: %s: %s%s" d.stage (severity_to_string d.severity)
    d.message ctx

let to_json d =
  Json.Obj
    [
      ("stage", Json.Str d.stage);
      ("severity", Json.Str (severity_to_string d.severity));
      ("message", Json.Str d.message);
      ( "context",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) d.context) );
    ]

let of_json ~stage ~message j =
  let str name default =
    Option.value ~default (Option.bind (Json.member name j) Json.to_str)
  in
  let severity =
    match str "severity" "" with
    | "warning" -> Warning
    | "info" -> Info
    | _ -> Error
  in
  let context =
    match Json.member "context" j with
    | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
        kvs
    | _ -> []
  in
  make ~severity ~context ~stage:(str "stage" stage) (str "message" message)

let pp fmt d = Format.pp_print_string fmt (to_string d)

let ok_exn = function Ok x -> x | Stdlib.Error d -> raise (Failure d)

let () =
  Printexc.register_printer (function
    | Failure d -> Some ("Diag.Failure: " ^ to_string d)
    | _ -> None)
