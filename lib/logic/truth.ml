type value = F | T | X

type t = { names : string list; column : value array }

let check_inputs names =
  let n = List.length names in
  if n > 16 then invalid_arg "Truth.of_fun: too many inputs";
  if List.length (List.sort_uniq Stdlib.compare names) <> n then
    invalid_arg "Truth.of_fun: duplicate input names"

let env_of_row names i name =
  let rec idx k = function
    | [] -> invalid_arg ("Truth: unknown input " ^ name)
    | n :: rest -> if n = name then k else idx (k + 1) rest
  in
  (i lsr idx 0 names) land 1 = 1

let of_fun ~inputs f =
  check_inputs inputs;
  let rows = 1 lsl List.length inputs in
  let column = Array.init rows (fun i -> f (env_of_row inputs i)) in
  { names = inputs; column }

let of_column ~inputs column =
  check_inputs inputs;
  if Array.length column <> 1 lsl List.length inputs then
    invalid_arg "Truth.of_column: column length is not 2^inputs";
  { names = inputs; column = Array.copy column }

let of_expr e =
  let names = Expr.inputs e in
  of_fun ~inputs:names (fun env -> if Expr.eval env e then T else F)

let inputs t = t.names
let size t = Array.length t.column

let value t i =
  if i < 0 || i >= size t then invalid_arg "Truth.value: row out of range";
  t.column.(i)

let equal a b = a.names = b.names && a.column = b.column
let defined_everywhere t = Array.for_all (fun v -> v <> X) t.column

let mismatches ~reference t =
  if reference.names <> t.names then
    invalid_arg "Truth.mismatches: input lists differ";
  let out = ref [] in
  for i = size t - 1 downto 0 do
    if t.column.(i) <> reference.column.(i) then out := i :: !out
  done;
  !out

let pp_value ppf = function
  | F -> Format.pp_print_char ppf '0'
  | T -> Format.pp_print_char ppf '1'
  | X -> Format.pp_print_char ppf 'X'

let pp ppf t =
  Format.fprintf ppf "@[<v>%s |@ "
    (String.concat " " t.names);
  Array.iteri
    (fun i v -> Format.fprintf ppf "%d:%a@ " i pp_value v)
    t.column;
  Format.fprintf ppf "@]"
