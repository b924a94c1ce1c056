type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* Parser: recursive descent over a string with an explicit cursor.
   Errors are reported as (offset, message) rendered into one line. *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = raise (Parse_error (!pos, msg)) in
  (* a byte outside printable ASCII is named by its code, so an error
     message is always valid UTF-8 *)
  let show c =
    if c >= ' ' && c <= '~' then Printf.sprintf "'%c'" c
    else Printf.sprintf "0x%02X" (Char.code c)
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> err (Printf.sprintf "expected '%c', got %s" c (show d))
    | None -> err (Printf.sprintf "expected '%c', got end of input" c)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      value
    end
    else err (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let utf8_of_code buf u =
    (* code point to UTF-8; surrogates never get here (see [unicode]) *)
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    (* the 4 characters must each be a hex digit: [int_of_string "0x…"]
       would also accept OCaml underscores ("1_23") and signs *)
    if !pos + 4 > n then err "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> err "invalid \\u escape (expected 4 hex digits)"
      in
      v := (!v lsl 4) lor d;
      advance ()
    done;
    !v
  in
  let unicode buf =
    (* the four hex digits after a backslash-u: a surrogate is only valid
       as a high-low pair of escapes, which combines into one code point *)
    let start = !pos - 2 in
    let lone u =
      pos := start;
      err (Printf.sprintf "lone surrogate escape \\u%04X" u)
    in
    match hex4 () with
    | hi when hi >= 0xD800 && hi <= 0xDBFF ->
      if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
        pos := !pos + 2;
        match hex4 () with
        | lo when lo >= 0xDC00 && lo <= 0xDFFF ->
          utf8_of_code buf (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
        | _ -> lone hi
      end
      else lone hi
    | lo when lo >= 0xDC00 && lo <= 0xDFFF -> lone lo
    | u -> utf8_of_code buf u
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> err "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | None -> err "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> unicode buf
          | c -> err (Printf.sprintf "invalid escape character %s" (show c)));
          go ())
      | Some c when Char.code c < 0x20 -> err "control character in string"
      | Some c when Char.code c < 0x80 ->
        advance ();
        Buffer.add_char buf c;
        go ()
      | Some c ->
        (* strict UTF-8: no stray, overlong or surrogate sequences, so
           every string this parser returns prints back as valid JSON *)
        let d = String.get_utf_8_uchar s !pos in
        if not (Uchar.utf_decode_is_valid d) then
          err (Printf.sprintf "invalid UTF-8 in string (byte %s)" (show c));
        let len = Uchar.utf_decode_length d in
        Buffer.add_substring buf s !pos len;
        pos := !pos + len;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && number_char s.[!pos] do
      advance ()
    done;
    let slice = String.sub s start (!pos - start) in
    match float_of_string_opt slice with
    | Some f -> Num f
    | None ->
      pos := start;
      err (Printf.sprintf "invalid number %S" slice)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> err "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> err "expected ',' or '}' in object"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> err "expected ',' or ']' in array"
        in
        Arr (elements [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> err (Printf.sprintf "unexpected character %s" (show c))
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then err "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

(* Printer *)

let escape buf str =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    str

let shortest_float f =
  (* shortest decimal form that parses back to exactly [f]: 15
     significant digits when they round-trip, else 16, else 17 (always
     exact for a binary64).  "%.12g" here used to lose bits — e.g.
     [0.1 +. 0.2] printed as a different double, so job digests and
     persisted cache keys could mismatch across encode→decode. *)
  let s15 = Printf.sprintf "%.15g" f in
  if float_of_string s15 = f then s15
  else
    let s16 = Printf.sprintf "%.16g" f in
    if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

let add_num buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (shortest_float f)

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> add_num buf f
    | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          go x)
        kvs;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* Accessors *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_float = function Num f -> Some f | _ -> None

(* [int_of_float] wraps outside the int range, so 1e19 would read as
   some unrelated id: accept exactly the floats in [-2^62, 2^62) *)
let int_bound = Float.ldexp 1. 62

let to_int = function
  | Num f when Float.is_integer f && f >= -.int_bound && f < int_bound ->
    Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
