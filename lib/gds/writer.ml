type t = Bytes.t

(* data-type codes, as Record.encode writes them for each payload kind *)
let no_data = 0
let int16 = 2
let int32 = 3
let real8 = 5
let ascii = 6

(* A record's length, refused rather than wrapped when its 16-bit field
   cannot hold it. *)
let checked record len =
  if len > Record.max_length then
    invalid_arg
      (Printf.sprintf
         "Gds.Writer: a %s record of %d bytes exceeds the %d-byte limit of \
          its 16-bit length field"
         record len Record.max_length)
  else len

let name_length s = 4 + String.length s + (String.length s land 1)
let timestamp_length = 4 + 24

let header_length ~libname =
  6 + timestamp_length + checked "LIBNAME" (name_length libname) + 20

let structure_length sname =
  timestamp_length + checked "STRNAME" (name_length sname) + 4

(* BOUNDARY, LAYER, DATATYPE, then XY, then ENDEL *)
let boundary_length ~points = 16 + checked "XY" (4 + (8 * points)) + 4
let rect_length = boundary_length ~points:5
let endlib_length = 4
let create = Bytes.create

(* The first four bytes of a record: length, record type, data type. *)
let word len rtype dtype =
  Int32.of_int ((len lsl 16) lor (Record.type_code rtype lsl 8) lor dtype)

let head t pos len rtype dtype = Bytes.set_int32_be t pos (word len rtype dtype)
let set32 t pos v = Bytes.set_int32_be t pos (Int32.of_int v)
let boundary_word = word 4 Record.Boundary no_data
let layer_word = word 6 Record.Layer int16
let datatype_word = word 6 Record.Datatype int16
let rect_xy_word = word 44 Record.Xy int32
let endel_word = word 4 Record.Endel no_data
let timestamp = [| 2009; 3; 16; 0; 0; 0 |]

let timestamps t pos rtype =
  head t pos timestamp_length rtype int16;
  for i = 0 to 11 do
    Bytes.set_int16_be t (pos + 4 + (2 * i)) timestamp.(i mod 6)
  done;
  pos + timestamp_length

let name t pos record rtype s =
  let len = checked record (name_length s) in
  let n = String.length s in
  head t pos len rtype ascii;
  Bytes.blit_string s 0 t (pos + 4) n;
  if n land 1 = 1 then Bytes.set t (pos + 4 + n) '\000';
  pos + len

let header t pos ~libname ~user_unit_m =
  head t pos 6 Record.Header int16;
  Bytes.set_int16_be t (pos + 4) 600;
  let pos = timestamps t (pos + 6) Record.Bgnlib in
  let pos = name t pos "LIBNAME" Record.Libname libname in
  head t pos 20 Record.Units real8;
  Bytes.set_int64_be t (pos + 4) (Record.encode_real8 1.0);
  Bytes.set_int64_be t (pos + 12) (Record.encode_real8 user_unit_m);
  pos + 20

let begin_structure t pos sname =
  let pos = timestamps t pos Record.Bgnstr in
  name t pos "STRNAME" Record.Strname sname

let end_structure t pos =
  head t pos 4 Record.Endstr no_data;
  pos + 4

(* BOUNDARY, LAYER and DATATYPE: the 16 bytes every element starts with *)
let element t pos ~layer ~datatype =
  Bytes.set_int32_be t pos boundary_word;
  Bytes.set_int32_be t (pos + 4) layer_word;
  Bytes.set_int16_be t (pos + 8) layer;
  Bytes.set_int32_be t (pos + 10) datatype_word;
  Bytes.set_int16_be t (pos + 14) datatype

let rect t pos ~layer ~dx ~dy (r : Geom.Rect.t) =
  let x0 = r.Geom.Rect.x0 + dx and y0 = r.Geom.Rect.y0 + dy in
  let x1 = r.Geom.Rect.x1 + dx and y1 = r.Geom.Rect.y1 + dy in
  element t pos ~layer ~datatype:0;
  Bytes.set_int32_be t (pos + 16) rect_xy_word;
  set32 t (pos + 20) x0;
  set32 t (pos + 24) y0;
  set32 t (pos + 28) x1;
  set32 t (pos + 32) y0;
  set32 t (pos + 36) x1;
  set32 t (pos + 40) y1;
  set32 t (pos + 44) x0;
  set32 t (pos + 48) y1;
  set32 t (pos + 52) x0;
  set32 t (pos + 56) y0;
  Bytes.set_int32_be t (pos + 60) endel_word;
  pos + rect_length

let boundary t pos ~layer ~datatype xy =
  let len = checked "XY" (4 + (8 * List.length xy)) in
  element t pos ~layer ~datatype;
  head t (pos + 16) len Record.Xy int32;
  List.iteri
    (fun i (x, y) ->
      set32 t (pos + 20 + (8 * i)) x;
      set32 t (pos + 24 + (8 * i)) y)
    xy;
  let pos = pos + 16 + len in
  Bytes.set_int32_be t pos endel_word;
  pos + 4

let finish t pos =
  if pos + endlib_length <> Bytes.length t then
    invalid_arg
      (Printf.sprintf "Gds.Writer.finish: ENDLIB would end at %d in a %d-byte \
                       stream"
         (pos + endlib_length) (Bytes.length t));
  head t pos endlib_length Record.Endlib no_data;
  Bytes.unsafe_to_string t
