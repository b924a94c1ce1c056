type record_type =
  | Header | Bgnlib | Libname | Units | Endlib | Bgnstr | Strname | Endstr
  | Boundary | Layer | Datatype | Xy | Endel | Sref | Sname | Text | String_
  | Texttype | Presentation

let type_code = function
  | Header -> 0x00
  | Bgnlib -> 0x01
  | Libname -> 0x02
  | Units -> 0x03
  | Endlib -> 0x04
  | Bgnstr -> 0x05
  | Strname -> 0x06
  | Endstr -> 0x07
  | Boundary -> 0x08
  | Layer -> 0x0D
  | Datatype -> 0x0E
  | Xy -> 0x10
  | Endel -> 0x11
  | Sref -> 0x0A
  | Sname -> 0x12
  | Text -> 0x0C
  | String_ -> 0x19
  | Texttype -> 0x16
  | Presentation -> 0x17

let all_types =
  [ Header; Bgnlib; Libname; Units; Endlib; Bgnstr; Strname; Endstr;
    Boundary; Layer; Datatype; Xy; Endel; Sref; Sname; Text; String_;
    Texttype; Presentation ]

let type_of_code c = List.find_opt (fun t -> type_code t = c) all_types

type payload =
  | No_data
  | I16 of int list
  | I32 of int list
  | Real8 of float list
  | Ascii of string

type t = { rtype : record_type; payload : payload }

let data_code = function
  | No_data -> 0
  | I16 _ -> 2
  | I32 _ -> 3
  | Real8 _ -> 5
  | Ascii _ -> 6

(* GDSII 8-byte real: sign bit, 7-bit excess-64 base-16 exponent, 56-bit
   mantissa with value = mantissa/2^56 * 16^(exp-64). *)
let encode_real8 v =
  if v = 0. then 0L
  else begin
    let sign = if v < 0. then 1L else 0L in
    let v = Float.abs v in
    (* find e such that v * 16^-e is in [1/16, 1) *)
    let rec norm v e =
      if v >= 1. then norm (v /. 16.) (e + 1)
      else if v < 1. /. 16. then norm (v *. 16.) (e - 1)
      else (v, e)
    in
    let m, e = norm v 0 in
    let mant = Int64.of_float (m *. 72057594037927936.0 (* 2^56 *)) in
    let exp = Int64.of_int (e + 64) in
    Int64.(logor (shift_left sign 63) (logor (shift_left exp 56) mant))
  end

let decode_real8 bits =
  if bits = 0L then 0.
  else begin
    let sign = Int64.shift_right_logical bits 63 in
    let exp =
      Int64.to_int (Int64.logand (Int64.shift_right_logical bits 56) 0x7FL)
    in
    let mant = Int64.logand bits 0xFFFFFFFFFFFFFFL in
    let m = Int64.to_float mant /. 72057594037927936.0 in
    let v = m *. (16. ** float_of_int (exp - 64)) in
    if sign = 1L then -.v else v
  end

let max_length = 0xFFFE

let payload_bytes = function
  | No_data -> 0
  | I16 xs -> 2 * List.length xs
  | I32 xs -> 4 * List.length xs
  | Real8 xs -> 8 * List.length xs
  | Ascii s -> String.length s + (String.length s land 1)

let add_i16 buf v =
  Buffer.add_char buf (Char.chr ((v asr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let add_i32 buf v =
  add_i16 buf ((v asr 16) land 0xFFFF);
  add_i16 buf (v land 0xFFFF)

let add_i64 buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let encode buf t =
  let len = 4 + payload_bytes t.payload in
  if len > max_length then
    invalid_arg
      (Printf.sprintf
         "Gds.Record.encode: a record of %d bytes exceeds the %d-byte limit \
          of its 16-bit length field"
         len max_length);
  add_i16 buf len;
  Buffer.add_char buf (Char.chr (type_code t.rtype));
  Buffer.add_char buf (Char.chr (data_code t.payload));
  match t.payload with
  | No_data -> ()
  | I16 xs -> List.iter (fun v -> add_i16 buf (v land 0xFFFF)) xs
  | I32 xs -> List.iter (add_i32 buf) xs
  | Real8 xs -> List.iter (fun v -> add_i64 buf (encode_real8 v)) xs
  | Ascii s ->
    Buffer.add_string buf s;
    if String.length s land 1 = 1 then Buffer.add_char buf '\000'

let get_i16 s pos =
  let v = (Char.code s.[pos] lsl 8) lor Char.code s.[pos + 1] in
  if v land 0x8000 <> 0 then v - 0x10000 else v

let get_u16 s pos = (Char.code s.[pos] lsl 8) lor Char.code s.[pos + 1]

let get_i32 s pos =
  let v =
    (Char.code s.[pos] lsl 24)
    lor (Char.code s.[pos + 1] lsl 16)
    lor (Char.code s.[pos + 2] lsl 8)
    lor Char.code s.[pos + 3]
  in
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let get_i64 s pos =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[pos + i]))
  done;
  !v

let decode s ~pos =
  if pos + 4 > String.length s then Error "truncated record header"
  else begin
    let len = get_u16 s pos in
    if len < 4 || pos + len > String.length s then Error "bad record length"
    else begin
      let tc = Char.code s.[pos + 2] and dc = Char.code s.[pos + 3] in
      match type_of_code tc with
      | None -> Error (Printf.sprintf "unknown record type 0x%02X" tc)
      | Some rtype ->
        let n = len - 4 in
        let payload =
          match dc with
          | 0 | 1 -> Ok No_data
          | 2 ->
            Ok (I16 (List.init (n / 2) (fun i -> get_i16 s (pos + 4 + (2 * i)))))
          | 3 ->
            Ok (I32 (List.init (n / 4) (fun i -> get_i32 s (pos + 4 + (4 * i)))))
          | 5 ->
            Ok
              (Real8
                 (List.init (n / 8) (fun i ->
                      decode_real8 (get_i64 s (pos + 4 + (8 * i))))))
          | 6 ->
            let raw = String.sub s (pos + 4) n in
            (* strip NUL padding *)
            let raw =
              match String.index_opt raw '\000' with
              | Some i -> String.sub raw 0 i
              | None -> raw
            in
            Ok (Ascii raw)
          | _ -> Error (Printf.sprintf "unknown data type %d" dc)
        in
        (match payload with
        | Ok payload -> Ok ({ rtype; payload }, pos + len)
        | Error e -> Error e)
    end
  end
