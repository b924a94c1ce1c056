(* GDSII codec tests: 8-byte real encoding, record round-trips, and
   stream-level library round-trips. *)

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let real8_known_values () =
  (* 1.0 encodes as 0x4110000000000000 *)
  Alcotest.(check int64) "encode 1.0" 0x4110000000000000L
    (Gds.Record.encode_real8 1.0);
  Alcotest.(check (float 0.)) "decode 1.0" 1.0
    (Gds.Record.decode_real8 0x4110000000000000L);
  Alcotest.(check (float 0.)) "zero" 0. (Gds.Record.decode_real8 0L)

let real8_roundtrip =
  QCheck.Test.make ~name:"real8 round-trip" ~count:500
    QCheck.(float_range 1e-12 1e12)
    (fun v ->
      let back = Gds.Record.decode_real8 (Gds.Record.encode_real8 v) in
      Float.abs (back -. v) <= 1e-12 *. Float.abs v)

let real8_negative () =
  let v = -0.0325 in
  Alcotest.(check (float 1e-15)) "negative round trip" v
    (Gds.Record.decode_real8 (Gds.Record.encode_real8 v))

let record_roundtrip () =
  let buf = Buffer.create 64 in
  let records =
    [
      { Gds.Record.rtype = Gds.Record.Header; payload = Gds.Record.I16 [ 600 ] };
      { Gds.Record.rtype = Gds.Record.Libname; payload = Gds.Record.Ascii "lib" };
      { Gds.Record.rtype = Gds.Record.Xy;
        payload = Gds.Record.I32 [ 0; 0; 10; 0; 10; 5; 0; 5; 0; 0 ] };
      { Gds.Record.rtype = Gds.Record.Endel; payload = Gds.Record.No_data };
    ]
  in
  List.iter (Gds.Record.encode buf) records;
  let s = Buffer.contents buf in
  let rec decode_all pos acc =
    if pos >= String.length s then List.rev acc
    else
      match Gds.Record.decode s ~pos with
      | Ok (r, next) -> decode_all next (r :: acc)
      | Error e -> Alcotest.fail e
  in
  let got = decode_all 0 [] in
  check_int "record count" 4 (List.length got);
  checkb "records equal" true (got = records)

let record_odd_string_padded () =
  let buf = Buffer.create 16 in
  Gds.Record.encode buf
    { Gds.Record.rtype = Gds.Record.Libname; payload = Gds.Record.Ascii "abc" };
  let s = Buffer.contents buf in
  check_int "padded to even" 0 (String.length s mod 2);
  match Gds.Record.decode s ~pos:0 with
  | Ok ({ Gds.Record.payload = Gds.Record.Ascii got; _ }, _) ->
    Alcotest.(check string) "padding stripped" "abc" got
  | Ok _ | Error _ -> Alcotest.fail "decode failed"

let record_negative_i32 () =
  let buf = Buffer.create 16 in
  Gds.Record.encode buf
    { Gds.Record.rtype = Gds.Record.Xy; payload = Gds.Record.I32 [ -7; 13 ] };
  match Gds.Record.decode (Buffer.contents buf) ~pos:0 with
  | Ok ({ Gds.Record.payload = Gds.Record.I32 [ a; b ]; _ }, _) ->
    check_int "negative preserved" (-7) a;
    check_int "positive preserved" 13 b
  | Ok _ | Error _ -> Alcotest.fail "decode failed"

let decode_errors () =
  checkb "truncated" true
    (match Gds.Record.decode "\000" ~pos:0 with Error _ -> true | Ok _ -> false);
  (* bogus record type 0x7F *)
  let s = "\000\004\127\000" in
  checkb "unknown type" true
    (match Gds.Record.decode s ~pos:0 with Error _ -> true | Ok _ -> false)

let rects_arb =
  QCheck.list_of_size (QCheck.Gen.int_range 1 10)
    (QCheck.make
       ~print:Geom.Rect.to_string
       QCheck.Gen.(
         let* x = int_range (-100) 100 in
         let* y = int_range (-100) 100 in
         let* w = int_range 1 50 in
         let* h = int_range 1 50 in
         return (Geom.Rect.of_size ~x ~y ~w ~h)))

let stream_roundtrip_random =
  QCheck.Test.make ~name:"stream round-trip preserves geometry" ~count:100
    rects_arb (fun rects ->
      let lib =
        Gds.Stream.library ~rules:Pdk.Rules.default ~name:"t"
          [ ("cell", [ (Pdk.Layer.Gate, Geom.Region.of_rects rects) ]) ]
      in
      match Gds.Stream.of_bytes (Gds.Stream.to_bytes lib) with
      | Error _ -> false
      | Ok back ->
        (match back.Gds.Stream.structures with
        | [ s ] ->
          List.length s.Gds.Stream.elements = List.length rects
          && List.for_all2
               (fun (e : Gds.Stream.element) r ->
                 e.Gds.Stream.xy
                 = (Gds.Stream.element_of_rect
                      ~layer:(Pdk.Layer.gds_number Pdk.Layer.Gate) r)
                     .Gds.Stream.xy)
               s.Gds.Stream.elements rects
        | _ -> false))

(* Arbitrary records over every record kind and a spread of payload shapes
   and sizes; encode then decode must reproduce the records exactly. *)
let record_arb =
  let open QCheck in
  let rtype_gen =
    Gen.oneofl
      Gds.Record.
        [ Header; Bgnlib; Libname; Units; Endlib; Bgnstr; Strname; Endstr;
          Boundary; Layer; Datatype; Xy; Endel; Sref; Sname; Text; String_;
          Texttype; Presentation ]
  in
  let payload_gen =
    Gen.oneof
      [
        Gen.return Gds.Record.No_data;
        Gen.map
          (fun l -> Gds.Record.I16 l)
          Gen.(list_size (int_range 1 8) (int_range (-32768) 32767));
        Gen.map
          (fun l -> Gds.Record.I32 l)
          Gen.(list_size (int_range 1 8) (int_range (-1073741824) 1073741823));
        Gen.map
          (fun l -> Gds.Record.Real8 (List.map float_of_int l))
          Gen.(list_size (int_range 1 4) (int_range (-100000) 100000));
        Gen.map
          (fun s -> Gds.Record.Ascii s)
          Gen.(
            string_size
              ~gen:(Gen.map Char.chr (int_range 97 122))
              (int_range 1 16));
      ]
  in
  let record_gen =
    Gen.map2
      (fun rtype payload -> { Gds.Record.rtype; payload })
      rtype_gen payload_gen
  in
  let print (r : Gds.Record.t) =
    Printf.sprintf "%d:%s"
      (Gds.Record.type_code r.Gds.Record.rtype)
      (match r.Gds.Record.payload with
      | Gds.Record.No_data -> "nodata"
      | Gds.Record.I16 l ->
        "i16[" ^ String.concat ";" (List.map string_of_int l) ^ "]"
      | Gds.Record.I32 l ->
        "i32[" ^ String.concat ";" (List.map string_of_int l) ^ "]"
      | Gds.Record.Real8 l ->
        "r8[" ^ String.concat ";" (List.map string_of_float l) ^ "]"
      | Gds.Record.Ascii s -> "ascii:" ^ s)
  in
  QCheck.make ~print:(QCheck.Print.list print)
    QCheck.Gen.(list_size (int_range 1 12) record_gen)

let record_roundtrip_random =
  QCheck.Test.make ~name:"record round-trip over kinds and payloads"
    ~count:300 record_arb (fun records ->
      let buf = Buffer.create 256 in
      List.iter (Gds.Record.encode buf) records;
      let s = Buffer.contents buf in
      let rec decode_all pos acc =
        if pos >= String.length s then Some (List.rev acc)
        else
          match Gds.Record.decode s ~pos with
          | Ok (r, next) -> decode_all next (r :: acc)
          | Error _ -> None
      in
      match decode_all 0 [] with
      | Some back -> back = records
      | None -> false)

let stream_units () =
  let lib =
    Gds.Stream.library ~rules:Pdk.Rules.default ~name:"units" []
  in
  match Gds.Stream.of_bytes (Gds.Stream.to_bytes lib) with
  | Ok back ->
    Alcotest.(check (float 1e-15)) "lambda in metres" 32.5e-9
      back.Gds.Stream.user_unit_m;
    Alcotest.(check string) "libname" "units" back.Gds.Stream.libname
  | Error e -> Alcotest.fail e

let stream_cell_export () =
  let cell =
    Layout.Cell.make_exn ~rules:Pdk.Rules.default ~fn:(Logic.Cell_fun.nand 3)
      ~style:Layout.Cell.Immune_new ~scheme:Layout.Cell.Scheme1 ~drive:4
  in
  let bytes =
    Cnfet.Synthesis.gds_of_cells ~rules:Pdk.Rules.default ~name:"lib"
      [ cell ]
  in
  match Gds.Stream.of_bytes bytes with
  | Ok lib ->
    check_int "one structure" 1 (List.length lib.Gds.Stream.structures);
    let s = List.nth lib.Gds.Stream.structures 0 in
    checkb "has elements" true (List.length s.Gds.Stream.elements > 5);
    checkb "boundary closed" true
      (List.for_all
         (fun (e : Gds.Stream.element) ->
           match e.Gds.Stream.xy with
           | first :: _ ->
             List.nth e.Gds.Stream.xy (List.length e.Gds.Stream.xy - 1) = first
           | [] -> false)
         s.Gds.Stream.elements)
  | Error e -> Alcotest.fail e

(* The NAND3 cell's stream pinned at the commit before the streaming
   writer. *)
let cell_export_golden () =
  let cell =
    Layout.Cell.make_exn ~rules:Pdk.Rules.default ~fn:(Logic.Cell_fun.nand 3)
      ~style:Layout.Cell.Immune_new ~scheme:Layout.Cell.Scheme1 ~drive:4
  in
  let bytes =
    Cnfet.Synthesis.gds_of_cells ~rules:Pdk.Rules.default ~name:"lib"
      [ cell ]
  in
  check_int "length" 1778 (String.length bytes);
  Alcotest.(check string) "digest" "ada0f6adc7791851959502efd80fc73e"
    (Digest.to_hex (Digest.string bytes))

(* The stream as Record.encode frames it, one record at a time: the
   reference the exact-size writer must match byte for byte. *)
let reference_bytes (lib : Gds.Stream.library) =
  let buf = Buffer.create 1024 in
  let put rtype payload = Gds.Record.encode buf { Gds.Record.rtype; payload } in
  let stamp = Gds.Record.I16 [ 2009; 3; 16; 0; 0; 0; 2009; 3; 16; 0; 0; 0 ] in
  put Gds.Record.Header (Gds.Record.I16 [ 600 ]);
  put Gds.Record.Bgnlib stamp;
  put Gds.Record.Libname (Gds.Record.Ascii lib.Gds.Stream.libname);
  put Gds.Record.Units (Gds.Record.Real8 [ 1.0; lib.Gds.Stream.user_unit_m ]);
  List.iter
    (fun (s : Gds.Stream.structure) ->
      put Gds.Record.Bgnstr stamp;
      put Gds.Record.Strname (Gds.Record.Ascii s.Gds.Stream.sname);
      List.iter
        (fun (e : Gds.Stream.element) ->
          put Gds.Record.Boundary Gds.Record.No_data;
          put Gds.Record.Layer (Gds.Record.I16 [ e.Gds.Stream.layer ]);
          put Gds.Record.Datatype (Gds.Record.I16 [ e.Gds.Stream.datatype ]);
          put Gds.Record.Xy
            (Gds.Record.I32
               (List.concat_map (fun (x, y) -> [ x; y ]) e.Gds.Stream.xy));
          put Gds.Record.Endel Gds.Record.No_data)
        s.Gds.Stream.elements;
      put Gds.Record.Endstr Gds.Record.No_data)
    lib.Gds.Stream.structures;
  put Gds.Record.Endlib Gds.Record.No_data;
  Buffer.contents buf

(* Random libraries: 1-4 structures, names of odd and even length, layers
   and datatypes past the 16-bit range (both encoders keep the low 16
   bits), rectangles with negative coordinates and free polygons. *)
let library_arb =
  let open QCheck.Gen in
  let name =
    string_size ~gen:(map Char.chr (int_range 65 90)) (int_range 1 9)
  in
  let coord = int_range (-100_000) 100_000 in
  let element =
    let* layer = int_range (-10) 70_000 in
    let* datatype = int_range 0 3 in
    oneof
      [
        (let* x = coord and* y = coord and* w = int_range 1 500
         and* h = int_range 1 500 in
         return
           { (Gds.Stream.element_of_rect ~layer (Geom.Rect.of_size ~x ~y ~w ~h))
             with Gds.Stream.datatype });
        map
          (fun xy -> { Gds.Stream.layer; datatype; xy })
          (list_size (int_range 0 7) (pair coord coord));
      ]
  in
  let structure =
    map2
      (fun sname elements -> { Gds.Stream.sname; elements })
      name
      (list_size (int_range 0 12) element)
  in
  let library =
    let* libname = name and* structures = list_size (int_range 1 4) structure
    and* lambda = float_range 1. 100. in
    return
      { Gds.Stream.libname; user_unit_m = lambda *. 1e-9; structures }
  in
  QCheck.make
    ~print:(fun (l : Gds.Stream.library) ->
      Printf.sprintf "%s: %s" l.Gds.Stream.libname
        (String.concat ", "
           (List.map
              (fun (s : Gds.Stream.structure) ->
                Printf.sprintf "%s(%d)" s.Gds.Stream.sname
                  (List.length s.Gds.Stream.elements))
              l.Gds.Stream.structures)))
    library

let writer_matches_reference =
  QCheck.Test.make ~name:"writer equals the record reference" ~count:300
    library_arb (fun lib ->
      String.equal (Gds.Stream.to_bytes lib) (reference_bytes lib))

(* A record length is a 16-bit field: the writer and the reference encoder
   refuse a record that does not fit instead of wrapping its length. *)
let record_length_limit () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let lib sname xy =
    {
      Gds.Stream.libname = "limit";
      user_unit_m = 1e-9;
      structures =
        [
          {
            Gds.Stream.sname;
            elements = [ { Gds.Stream.layer = 1; datatype = 0; xy } ];
          };
        ];
    }
  in
  let longest = String.make 65530 'n' in
  (match Gds.Stream.of_bytes (Gds.Stream.to_bytes (lib longest [])) with
  | Ok back ->
    checkb "longest name round-trips" true
      (List.map (fun (s : Gds.Stream.structure) -> s.Gds.Stream.sname)
         back.Gds.Stream.structures
      = [ longest ])
  | Error e -> Alcotest.fail e);
  checkb "one more character raises" true
    (raises (fun () -> Gds.Stream.to_bytes (lib (longest ^ "n") [])));
  let points n = List.init n (fun i -> (i, -i)) in
  checkb "8191 points fit" true
    (String.length (Gds.Stream.to_bytes (lib "p" (points 8191))) > 65532);
  checkb "8192 points raise" true
    (raises (fun () -> Gds.Stream.to_bytes (lib "p" (points 8192))));
  let encode payload () =
    Gds.Record.encode (Buffer.create 16)
      { Gds.Record.rtype = Gds.Record.Libname; payload }
  in
  checkb "reference encodes the longest" false
    (raises (encode (Gds.Record.Ascii longest)));
  checkb "reference raises past it" true
    (raises (encode (Gds.Record.Ascii (longest ^ "n"))))

let file_roundtrip () =
  let tmp = Filename.temp_file "cnfet" ".gds" in
  let lib =
    Gds.Stream.library ~rules:Pdk.Rules.default ~name:"file"
      [
        ( "c1",
          [ (Pdk.Layer.Metal1,
             Geom.Region.of_rect (Geom.Rect.of_size ~x:0 ~y:0 ~w:4 ~h:2)) ] );
      ]
  in
  Gds.Stream.write_file tmp lib;
  (match Gds.Stream.read_file tmp with
  | Ok back ->
    Alcotest.(check string) "libname" "file" back.Gds.Stream.libname;
    check_int "structures" 1 (List.length back.Gds.Stream.structures)
  | Error e -> Alcotest.fail e);
  Sys.remove tmp

let suite =
  [
    Alcotest.test_case "real8 known values" `Quick real8_known_values;
    Alcotest.test_case "real8 negative" `Quick real8_negative;
    Alcotest.test_case "record round-trip" `Quick record_roundtrip;
    Alcotest.test_case "odd string padded" `Quick record_odd_string_padded;
    Alcotest.test_case "negative i32" `Quick record_negative_i32;
    Alcotest.test_case "decode errors" `Quick decode_errors;
    Alcotest.test_case "stream units" `Quick stream_units;
    Alcotest.test_case "cell export" `Quick stream_cell_export;
    Alcotest.test_case "cell export golden" `Quick cell_export_golden;
    Alcotest.test_case "record length limit" `Quick record_length_limit;
    Alcotest.test_case "file round-trip" `Quick file_roundtrip;
    QCheck_alcotest.to_alcotest real8_roundtrip;
    QCheck_alcotest.to_alcotest record_roundtrip_random;
    QCheck_alcotest.to_alcotest stream_roundtrip_random;
    QCheck_alcotest.to_alcotest writer_matches_reference;
  ]
