type polarity = N_type | P_type

type t =
  | Device of string
  | Series of t list
  | Parallel of t list

let rec of_expr e =
  match e with
  | Expr.Var s -> Device s
  | Expr.And es -> Series (List.map of_expr es)
  | Expr.Or es -> Parallel (List.map of_expr es)
  | Expr.Const _ | Expr.Not _ ->
    invalid_arg "Network.of_expr: expression is not positive"

let rec dual = function
  | Device _ as d -> d
  | Series ns -> Parallel (List.map dual ns)
  | Parallel ns -> Series (List.map dual ns)

let rec devices = function
  | Device s -> [ s ]
  | Series ns | Parallel ns -> List.concat_map devices ns

let device_count n = List.length (devices n)

let rec conducts pol env = function
  | Device s -> (
    match pol with N_type -> env s | P_type -> not (env s))
  | Series ns -> List.for_all (conducts pol env) ns
  | Parallel ns -> List.exists (conducts pol env) ns

let rec depth = function
  | Device _ -> 1
  | Series ns -> List.fold_left (fun acc n -> acc + depth n) 0 ns
  | Parallel ns -> List.fold_left (fun acc n -> max acc (depth n)) 0 ns

let validate_complementary ~pdn ~pun =
  let names =
    List.sort_uniq Stdlib.compare (devices pdn @ devices pun)
  in
  if List.length names > 16 then Error "too many inputs to check"
  else begin
    let rows = 1 lsl List.length names in
    let exception Bad of string in
    try
      for i = 0 to rows - 1 do
        let env name =
          let rec idx k = function
            | [] -> raise Not_found
            | n :: rest -> if n = name then k else idx (k + 1) rest
          in
          (i lsr idx 0 names) land 1 = 1
        in
        let down = conducts N_type env pdn
        and up = conducts P_type env pun in
        if down && up then
          raise (Bad (Printf.sprintf "row %d: both networks conduct" i));
        if (not down) && not up then
          raise (Bad (Printf.sprintf "row %d: neither network conducts" i))
      done;
      Ok ()
    with Bad msg -> Error msg
  end

let rec pp ppf = function
  | Device s -> Format.pp_print_string ppf s
  | Series ns ->
    Format.fprintf ppf "S(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
         pp)
      ns
  | Parallel ns ->
    Format.fprintf ppf "P(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
         pp)
      ns
