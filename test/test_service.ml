(* Service subsystem tests: the JSON codec, the job codec/digests, the
   scheduler's replay-mode guarantees (the PR's acceptance criteria), and
   the NDJSON protocol layer. *)

module Json = Service.Json
module Job = Service.Job
module Scheduler = Service.Scheduler
module Server = Service.Server

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- JSON --- *)

let json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1,2.5,-3,\"x\",null,{}]";
      "{\"a\":[],\"b\":{\"c\":\"nested \\\"quotes\\\"\"}}";
      "\"tab\\there\"";
    ]
  in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error e -> Alcotest.failf "%s: %s" s e
      | Ok v -> (
        (* print . parse is the identity on the value *)
        match Json.of_string (Json.to_string v) with
        | Ok v' -> checkb s true (v = v')
        | Error e -> Alcotest.failf "reparse %s: %s" s e))
    cases;
  (* unicode escapes decode to UTF-8 *)
  (match Json.of_string "\"\\u00e9\\ud83d\\ude00\"" with
  | Ok (Json.Str s) -> check_str "utf8" "\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "unicode escape");
  (* errors carry an offset and don't raise *)
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error e -> checkb bad true (String.length e > 0))
    [ ""; "{"; "[1,]"; "{\"a\"}"; "tru"; "1e"; "\"unterminated"; "1 2";
      "\"\xff\"" (* a byte that never occurs in UTF-8 *);
      "\"\xc3\"" (* a lead byte cut off by the closing quote *);
      "\"\xc3\x41\"" (* a lead byte without its continuation *);
      "\"\x80\"" (* a stray continuation byte *);
      "\"\xc0\xaf\"" (* an overlong '/' *);
      "\"\xed\xa0\x80\"" (* an encoded surrogate *);
      "\"\xf4\x90\x80\x80\"" (* past U+10FFFF *);
      "{\"op\":\xff}"; "{\"op\":\xc3\xa9}" ]

let json_numbers () =
  check_str "integral" "42" (Json.to_string (Json.int 42));
  check_str "negative" "-7" (Json.to_string (Json.int (-7)));
  check_str "fraction" "2.5" (Json.to_string (Json.Num 2.5));
  check_str "non-finite is null" "null" (Json.to_string (Json.Num nan));
  checkb "to_int rejects fractions" true (Json.to_int (Json.Num 1.5) = None);
  checkb "member on non-object" true (Json.member "k" (Json.int 3) = None)

let reparse_num s f =
  match Json.of_string (Json.to_string (Json.Num f)) with
  | Ok (Json.Num f') -> checkb s true (Float.equal f f')
  | _ -> Alcotest.failf "%s: did not reparse as a number" s

let json_float_shortest_roundtrip () =
  (* the satellite case: %.12g used to print 0.1 +. 0.2 as a different
     double, so encode->decode changed job digests *)
  reparse_num "0.1 + 0.2" (0.1 +. 0.2);
  reparse_num "1/3" (1. /. 3.);
  reparse_num "pi" (4. *. atan 1.);
  reparse_num "smallest normal" 2.2250738585072014e-308;
  reparse_num "huge integral" 1e306;
  (* shortest form: simple decimals keep their short spelling *)
  check_str "0.25 stays short" "0.25" (Json.to_string (Json.Num 0.25));
  check_str "0.1 stays short" "0.1" (Json.to_string (Json.Num 0.1))

let json_float_roundtrip_prop =
  QCheck.Test.make ~name:"json float print/parse round-trips" ~count:2000
    QCheck.float (fun f ->
      QCheck.assume (Float.is_finite f);
      match Json.of_string (Json.to_string (Json.Num f)) with
      | Ok (Json.Num f') -> Float.equal f f'
      | _ -> false)

let json_unicode_escape_rejects () =
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error e -> checkb bad true (String.length e > 0))
    [
      "\"\\u1_23\"" (* int_of_string's underscore syntax must not leak *);
      "\"\\u12g4\"";
      "\"\\u+123\"";
      "\"\\u 123\"";
      "\"\\u\"" (* lone \u before the closing quote *);
      "\"\\u12\"" (* truncated at end of input *);
      "\"\\u" (* lone \u at end of input *);
      "\"\\ud800\"" (* lone high surrogate *);
      "\"\\udc00\"" (* lone low surrogate *);
      "\"\\ud800\\u0041\"" (* high surrogate before a non-surrogate *);
      "\"\\ud800\\ud800\"" (* two high surrogates *);
      "\"\\ud800x\"";
    ];
  match Json.of_string "\"\\u00E9\"" with
  | Ok (Json.Str s) -> check_str "uppercase hex still fine" "\xc3\xa9" s
  | _ -> Alcotest.fail "rejected a valid escape"

(* Strings come back as valid UTF-8, and an error message names any byte
   outside printable ASCII by its code, so even the reply to a garbled
   request is valid UTF-8. *)
let json_strict_utf8 () =
  List.iter
    (fun (input, offset, byte) ->
      match Json.of_string input with
      | Ok _ -> Alcotest.failf "accepted %S" input
      | Error e ->
        checkb (e ^ " is UTF-8") true (String.is_valid_utf_8 e);
        checkb (e ^ " gives the offset") true
          (contains ~sub:(Printf.sprintf "offset %d:" offset) e);
        checkb (e ^ " names " ^ byte) true (contains ~sub:byte e))
    [
      ("\"t\xff\"", 2, "0xFF");
      ("{\"op\":\xff}", 6, "0xFF");
      ("{\"op\":\xc3\xa9}", 6, "0xC3");
      ("\"\xed\xa0\x80\"", 1, "0xED");
      ("[\"ok\",\"\\ud800\"]", 7, "D800");
    ];
  (* well-formed multi-byte UTF-8 passes through unchanged *)
  List.iter
    (fun raw ->
      match Json.of_string ("\"" ^ raw ^ "\"") with
      | Ok (Json.Str s) ->
        check_str "utf-8 kept" raw s;
        check_str "prints back" ("\"" ^ raw ^ "\"")
          (Json.to_string (Json.Str s))
      | _ -> Alcotest.failf "rejected %S" raw)
    [ "\xc3\xa9"; "\xe2\x82\xac"; "\xef\xbf\xbf"; "\xf0\x9f\x98\x80";
      "\xf4\x8f\xbf\xbf" ]

(* --- jobs --- *)

let job_codec_roundtrip () =
  let jobs =
    [
      Job.flow Job.Full_adder;
      Job.flow ~scheme:`S1 ~aspect:2.0 (Job.Ripple 4);
      Job.flow (Job.Netlist_text "design inv_pair\ninst u1 INV 4 A=a Z=b\n");
      Job.flow (Job.Generated "mult8");
      Job.flow ~scheme:`S1 (Job.Generated "lfsr16x20");
      Job.fault "NAND2";
      Job.fault ~drive:2 ~style:Layout.Cell.Vulnerable ~trials:77 ~seed:9
        "NOR2";
      Job.characterize "INV";
      Job.characterize ~drive:4 ~loads:[ 0; 1; 8 ] "AOI21";
      Job.testgen "NAND2";
      Job.testgen ~drive:2 ~style:Layout.Cell.Immune_new ~scheme:`S2
        ~trials:77 ~tracks_per_trial:5 ~max_angle_deg:6.5 ~seed:9
        ~max_spares:3 ~p_good:0.85 ~max_extra_tubes:2 "AOI21";
    ]
  in
  List.iter
    (fun job ->
      match Job.of_json (Job.to_json job) with
      | Ok job' -> checkb (Job.describe job) true (job = job')
      | Error d -> Alcotest.failf "%s: %s" (Job.describe job)
                     (Core.Diag.to_string d))
    jobs

let job_codec_rejects () =
  let bad =
    [
      "{}";
      "{\"kind\":\"nope\"}";
      "{\"kind\":\"fault\"}";
      "{\"kind\":\"fault\",\"cell\":3}";
      "{\"kind\":\"flow\",\"design\":\"ripple\",\"bits\":\"wide\"}";
      "{\"kind\":\"flow\",\"design\":\"warp_core\"}";
      "{\"kind\":\"characterize\",\"cell\":\"INV\",\"loads\":\"x\"}";
      "{\"kind\":\"testgen\"}";
      "{\"kind\":\"testgen\",\"cell\":\"NAND2\",\"scheme\":\"s3\"}";
      "{\"kind\":\"testgen\",\"cell\":\"NAND2\",\"style\":\"fancy\"}";
      "{\"kind\":\"testgen\",\"cell\":\"NAND2\",\"p_good\":\"high\"}";
    ]
  in
  List.iter
    (fun s ->
      let v = Result.get_ok (Json.of_string s) in
      match Job.of_json v with
      | Ok _ -> Alcotest.failf "accepted %s" s
      | Error d -> check_str s "service.protocol" d.Core.Diag.stage)
    bad;
  (* every decoder error, spelled exactly: message, context and the
     member checked first when several are wrong *)
  let exact =
    [
      ( {|{}|},
        "job: missing or ill-typed member \"kind\" (expected string) \
         (member=kind)" );
      ( {|{"kind":3}|},
        "job: missing or ill-typed member \"kind\" (expected string) \
         (member=kind)" );
      ( {|{"kind":"nope"}|},
        "job: unknown kind \"nope\" (expected flow, fault, characterize, \
         testgen or dse) (kind=nope)" );
      ( {|{"kind":"flow","design":"warp_core"}|},
        "flow job: unknown design \"warp_core\" (expected full_adder, \
         ripple, netlist or generated) (design=warp_core)" );
      ( {|{"kind":"flow","design":3}|},
        "job: missing or ill-typed member \"design\" (expected string) \
         (member=design)" );
      ( {|{"kind":"flow","design":"ripple","bits":"wide"}|},
        "job: missing or ill-typed member \"bits\" (expected int) \
         (member=bits)" );
      ( {|{"kind":"flow","design":"netlist"}|},
        "job: missing or ill-typed member \"text\" (expected string) \
         (member=text)" );
      ( {|{"kind":"flow","design":"generated","spec":false}|},
        "job: missing or ill-typed member \"spec\" (expected string) \
         (member=spec)" );
      ( {|{"kind":"flow","scheme":"S3"}|},
        "flow job: unknown scheme \"s3\" (expected s1 or s2) (scheme=s3)" );
      ( {|{"kind":"flow","scheme":2}|},
        "job: missing or ill-typed member \"scheme\" (expected string) \
         (member=scheme)" );
      ( {|{"kind":"flow","aspect":"wide"}|},
        "job: missing or ill-typed member \"aspect\" (expected number) \
         (member=aspect)" );
      ( {|{"kind":"flow","design":"warp_core","scheme":"s3"}|},
        "flow job: unknown design \"warp_core\" (expected full_adder, \
         ripple, netlist or generated) (design=warp_core)" );
      ( {|{"kind":"fault"}|},
        "job: missing or ill-typed member \"cell\" (expected string) \
         (member=cell)" );
      ( {|{"kind":"fault","cell":3}|},
        "job: missing or ill-typed member \"cell\" (expected string) \
         (member=cell)" );
      ( {|{"kind":"fault","cell":"NAND2","style":"fancy"}|},
        "fault job: unknown style \"fancy\" (expected new, old, vulnerable \
         or cmos) (style=fancy)" );
      ( {|{"kind":"fault","cell":"NAND2","style":1}|},
        "job: missing or ill-typed member \"style\" (expected string) \
         (member=style)" );
      ( {|{"kind":"fault","cell":"NAND2","drive":"x","style":"fancy"}|},
        "job: missing or ill-typed member \"drive\" (expected int) \
         (member=drive)" );
      ( {|{"kind":"fault","cell":"NAND2","trials":1.5}|},
        "job: missing or ill-typed member \"trials\" (expected int) \
         (member=trials)" );
      ( {|{"kind":"fault","cell":"NAND2","tracks_per_trial":null}|},
        "job: missing or ill-typed member \"tracks_per_trial\" (expected \
         int) (member=tracks_per_trial)" );
      ( {|{"kind":"fault","cell":"NAND2","max_angle_deg":"x"}|},
        "job: missing or ill-typed member \"max_angle_deg\" (expected \
         number) (member=max_angle_deg)" );
      ( {|{"kind":"fault","cell":"NAND2","seed":"x"}|},
        "job: missing or ill-typed member \"seed\" (expected int) \
         (member=seed)" );
      ( {|{"kind":"characterize"}|},
        "job: missing or ill-typed member \"cell\" (expected string) \
         (member=cell)" );
      ( {|{"kind":"characterize","cell":"INV","drive":"x"}|},
        "job: missing or ill-typed member \"drive\" (expected int) \
         (member=drive)" );
      ( {|{"kind":"characterize","cell":"INV","loads":"x"}|},
        "job: missing or ill-typed member \"loads\" (expected array) \
         (member=loads)" );
      ( {|{"kind":"characterize","cell":"INV","loads":[1,"x"]}|},
        "characterize job: loads must be an array of ints (member=loads)" );
      ( {|{"kind":"testgen"}|},
        "job: missing or ill-typed member \"cell\" (expected string) \
         (member=cell)" );
      ( {|{"kind":"testgen","cell":"NAND2","scheme":"s3"}|},
        "testgen job: unknown scheme \"s3\" (expected s1 or s2) (scheme=s3)" );
      ( {|{"kind":"testgen","cell":"NAND2","scheme":[]}|},
        "job: missing or ill-typed member \"scheme\" (expected string) \
         (member=scheme)" );
      ( {|{"kind":"testgen","cell":"NAND2","style":"fancy"}|},
        "testgen job: unknown style \"fancy\" (expected new, old, \
         vulnerable or cmos) (style=fancy)" );
      ( {|{"kind":"testgen","cell":"NAND2","style":"fancy","scheme":"s3"}|},
        "testgen job: unknown style \"fancy\" (expected new, old, \
         vulnerable or cmos) (style=fancy)" );
      ( {|{"kind":"testgen","cell":"NAND2","p_good":"high"}|},
        "job: missing or ill-typed member \"p_good\" (expected number) \
         (member=p_good)" );
      ( {|{"kind":"testgen","cell":"NAND2","max_spares":"x"}|},
        "job: missing or ill-typed member \"max_spares\" (expected int) \
         (member=max_spares)" );
      ( {|{"kind":"testgen","cell":"NAND2","max_extra_tubes":2.5}|},
        "job: missing or ill-typed member \"max_extra_tubes\" (expected \
         int) (member=max_extra_tubes)" );
      ( {|{"kind":"dse"}|},
        "job: missing or ill-typed member \"cell\" (expected string) \
         (member=cell)" );
      ( {|{"kind":"dse","cell":"NAND2","style":"fancy"}|},
        "dse job: unknown style \"fancy\" (expected new, old, vulnerable or \
         cmos) (style=fancy)" );
      ( {|{"kind":"dse","cell":"NAND2","pitches":"x","style":"fancy"}|},
        "dse job: unknown style \"fancy\" (expected new, old, vulnerable or \
         cmos) (style=fancy)" );
      ( {|{"kind":"dse","cell":"NAND2","pitches":"x"}|},
        "job: missing or ill-typed member \"pitches\" (expected array) \
         (member=pitches)" );
      ( {|{"kind":"dse","cell":"NAND2","pitches":[4,"x"]}|},
        "dse job: pitches must be an array of numbers (member=pitches)" );
      ( {|{"kind":"dse","cell":"NAND2","p_metallic":[true]}|},
        "dse job: p_metallic must be an array of numbers (member=p_metallic)" );
      ( {|{"kind":"dse","cell":"NAND2","removal":[null]}|},
        "dse job: removal must be an array of numbers (member=removal)" );
      ( {|{"kind":"dse","cell":"NAND2","drives":[1.5]}|},
        "dse job: drives must be an array of ints (member=drives)" );
      ( {|{"kind":"dse","cell":"NAND2","drives":"x"}|},
        "job: missing or ill-typed member \"drives\" (expected array) \
         (member=drives)" );
      ( {|{"kind":"dse","cell":"NAND2","drives":[1.5],"pitches":[true]}|},
        "dse job: pitches must be an array of numbers (member=pitches)" );
      ( {|{"kind":"dse","cell":"NAND2","schemes":["s3"]}|},
        "dse job: schemes must be an array of \"s1\" / \"s2\" \
         (member=schemes)" );
      ( {|{"kind":"dse","cell":"NAND2","schemes":[1]}|},
        "dse job: schemes must be an array of \"s1\" / \"s2\" \
         (member=schemes)" );
      ( {|{"kind":"dse","cell":"NAND2","schemes":"s1"}|},
        "job: missing or ill-typed member \"schemes\" (expected array) \
         (member=schemes)" );
      ( {|{"kind":"dse","cell":"NAND2","load":"x"}|},
        "job: missing or ill-typed member \"load\" (expected int) \
         (member=load)" );
      ( {|{"kind":"dse","cell":"NAND2","max_trials":"x"}|},
        "job: missing or ill-typed member \"max_trials\" (expected int) \
         (member=max_trials)" );
      ( {|{"kind":"dse","cell":"NAND2","seed":1.5}|},
        "job: missing or ill-typed member \"seed\" (expected int) \
         (member=seed)" );
      ( {|{"kind":"dse","cell":"NAND2","adaptive":"yes"}|},
        "job: missing or ill-typed member \"adaptive\" (expected bool) \
         (member=adaptive)" );
    ]
  in
  List.iter
    (fun (s, expected) ->
      match Job.of_json (Result.get_ok (Json.of_string s)) with
      | Ok _ -> Alcotest.failf "accepted %s" s
      | Error d ->
        check_str s ("service.protocol: error: " ^ expected)
          (Core.Diag.to_string d))
    exact

let job_validate_and_digest () =
  checkb "unknown cell rejected" true
    (Result.is_error (Job.validate (Job.fault "XYZZY")));
  checkb "zero trials rejected" true
    (Result.is_error (Job.validate (Job.fault ~trials:0 "NAND2")));
  checkb "empty loads rejected" true
    (Result.is_error (Job.validate (Job.characterize ~loads:[] "INV")));
  checkb "huge ripple rejected" true
    (Result.is_error (Job.validate (Job.flow (Job.Ripple 65))));
  checkb "empty generator spec rejected" true
    (Result.is_error (Job.validate (Job.flow (Job.Generated ""))));
  checkb "generated flow job accepted" true
    (Job.validate (Job.flow (Job.Generated "mult8")) = Ok ());
  checkb "generated digests differ by spec" true
    (Job.digest (Job.flow (Job.Generated "mult8"))
    <> Job.digest (Job.flow (Job.Generated "mult9")));
  checkb "valid job accepted" true
    (Result.is_ok (Job.validate (Job.fault "NAND2")));
  (* digests: stable, kind-prefixed, sensitive to every field *)
  let d1 = Job.digest (Job.fault ~seed:1 "NAND2") in
  check_str "digest stable" d1 (Job.digest (Job.fault ~seed:1 "NAND2"));
  checkb "kind prefix" true (String.length d1 > 6 && String.sub d1 0 6 = "fault-");
  checkb "seed changes digest" true (d1 <> Job.digest (Job.fault ~seed:2 "NAND2"));
  checkb "kind changes digest" true
    (Job.digest (Job.characterize "INV") <> Job.digest (Job.fault "INV"));
  (* testgen: validation covers the repair budgets too *)
  checkb "testgen unknown cell rejected" true
    (Result.is_error (Job.validate (Job.testgen "XYZZY")));
  checkb "testgen negative spares rejected" true
    (Result.is_error (Job.validate (Job.testgen ~max_spares:(-1) "NAND2")));
  checkb "testgen p_good > 1 rejected" true
    (Result.is_error (Job.validate (Job.testgen ~p_good:1.5 "NAND2")));
  checkb "testgen valid job accepted" true
    (Result.is_ok (Job.validate (Job.testgen "NAND2")));
  let t1 = Job.digest (Job.testgen "NAND2") in
  check_str "testgen digest stable" t1 (Job.digest (Job.testgen "NAND2"));
  checkb "testgen kind prefix" true
    (String.length t1 > 8 && String.sub t1 0 8 = "testgen-");
  checkb "spares change testgen digest" true
    (t1 <> Job.digest (Job.testgen ~max_spares:3 "NAND2"));
  checkb "scheme changes testgen digest" true
    (t1 <> Job.digest (Job.testgen ~scheme:`S2 "NAND2"));
  checkb "testgen and fault digests differ" true
    (t1 <> Job.digest (Job.fault ~style:Layout.Cell.Vulnerable "NAND2"))

(* Admission asks the library which (cell, drive) pairs exist: a
   characterize job, or a dse axis, at a drive the library does not build
   is refused before any library is built, naming the cell and the drive. *)
let job_validate_asks_library () =
  List.iter
    (fun (what, job, cell) ->
      match Job.validate job with
      | Ok () -> Alcotest.failf "%s accepted" what
      | Error d ->
        check_str (what ^ ": stage") "service.job" d.Core.Diag.stage;
        List.iter
          (fun (k, v) ->
            check_str (what ^ ": " ^ k) v
              (Option.value ~default:"" (List.assoc_opt k d.Core.Diag.context)))
          [ ("cell", cell); ("drive", "2"); ("origin", "library") ])
    [
      ("characterize NOR2 at drive 2", Job.characterize ~drive:2 "NOR2", "NOR2");
      ("default dse NOR3", Job.dse "NOR3", "NOR3");
    ]

(* The admission predicate and the library's entries come from one list:
   a characterize job passes exactly when the library built at its drive
   has the cell. *)
let job_validate_matches_library () =
  List.iter
    (fun drive ->
      let lib = Core.Diag.ok_exn (Stdcell.Library.cnfet ~drives:[ drive ] ()) in
      List.iter
        (fun (fn : Logic.Cell_fun.t) ->
          checkb
            (Printf.sprintf "%s at drive %d" fn.name drive)
            (Result.is_ok (Stdcell.Library.find lib ~name:fn.name ~drive))
            (Result.is_ok
               (Job.validate (Job.characterize ~drive ~loads:[ 1 ] fn.name))))
        Logic.Cell_fun.all)
    [ 1; 2; 3; 4 ]

(* The service budgets bound how long one job can hold the scheduler: a
   job over one is refused, naming the member, and a job at every budget
   is admitted. *)
let job_validate_budgets () =
  List.iter
    (fun (what, job, member, value) ->
      match Job.validate job with
      | Ok () -> Alcotest.failf "%s accepted" what
      | Error d ->
        check_str (what ^ ": stage") "service.job" d.Core.Diag.stage;
        check_str (what ^ ": " ^ member) value
          (Option.value ~default:""
             (List.assoc_opt member d.Core.Diag.context)))
    [
      ("load 100000", Job.characterize ~loads:[ 1; 100_000 ] "NAND2", "load",
       "100000");
      ("17 loads", Job.characterize ~loads:(List.init 17 succ) "NAND2",
       "loads", "17");
      ("fault trials", Job.fault ~trials:1_000_001 "NAND2", "trials",
       "1000001");
      ("testgen trials", Job.testgen ~trials:1_000_001 "NAND2", "trials",
       "1000001");
      ("dse load", Job.dse ~load:65 "NAND2", "load", "65");
    ];
  List.iter
    (fun (what, job) ->
      match Job.validate job with
      | Ok () -> ()
      | Error d -> Alcotest.failf "%s refused: %s" what (Core.Diag.to_string d))
    [
      ("16 loads of 64",
       Job.characterize ~loads:(List.init 16 (fun _ -> 64)) "NAND2");
      ("fault trials at budget", Job.fault ~trials:1_000_000 "NAND2");
      ("testgen trials at budget", Job.testgen ~trials:1_000_000 "NAND2");
      ("dse load 64", Job.dse ~load:64 "NAND2");
    ]

(* Admission reads the generator's own spec parser, which builds nothing:
   a generated-design job passes exactly when its spec builds, and a
   refused spec names the generator as its origin. *)
let job_validate_parses_specs () =
  List.iter
    (fun spec ->
      let admitted = Job.validate (Job.flow (Job.Generated spec)) in
      checkb
        (Printf.sprintf "%S admitted iff it builds" spec)
        (Result.is_ok (Flow.Generate.of_spec spec))
        (Result.is_ok admitted);
      match admitted with
      | Ok () -> ()
      | Error d ->
        check_str (spec ^ ": stage") "service.job" d.Core.Diag.stage;
        checkb (spec ^ ": origin") true
          (List.mem
             (List.assoc_opt "origin" d.Core.Diag.context)
             [ Some "generate"; Some "ripple_adder" ]))
    [
      "full_adder"; "mult4"; "mult0"; "mult65"; "multx"; "lfsr8x5"; "lfsr1x5";
      "lfsr8x0"; "lfsr16"; "rand50s3"; "rand0s3"; "rand9"; "ripple2";
      "ripple0"; "nosuch9"; "";
    ]

(* A served flow job's spec digest comes from the run's own netlist
   digest; its bytes were captured when the runner hashed the netlist
   again after the run. *)
let flow_spec_digest_pinned () =
  let spec_digest job =
    Parallel.Pool.with_pool ~domains:1 @@ fun pool ->
    match
      Service.Runner.run ~pool ~pass_cache:(Core.Pass.cache_create ()) job
    with
    | Ok doc ->
      Option.get (Option.bind (Json.member "spec_digest" doc) Json.to_str)
    | Error d -> Alcotest.fail (Core.Diag.to_string d)
  in
  check_str "full_adder" "aec95d7f20f195e2c741949001b942b3"
    (spec_digest (Job.flow Job.Full_adder));
  let tiny = "design tiny\ninput A\noutput Z\ninst u1 INV 1 out=Z A=A\n" in
  check_str "netlist text" "7a1f8bc717ad0b12646ca73ee1f5c9df"
    (spec_digest (Job.flow ~scheme:`S1 ~aspect:2. (Job.Netlist_text tiny)));
  (* without a pass cache nothing asks for a key, so nothing is hashed *)
  let lib = Core.Diag.ok_exn (Stdcell.Library.cnfet ~drives:[ 1 ] ()) in
  let netlist = Result.get_ok (Flow.Netlist_ir.of_string tiny) in
  match
    fst (Flow.Pipeline.run (Flow.Pipeline.spec_of_netlist ~lib netlist))
  with
  | Ok r ->
    checkb "cache-less run leaves the digest unforced" false
      (Lazy.is_val r.Flow.Pipeline.spec_digest)
  | Error d -> Alcotest.fail (Core.Diag.to_string d)

(* Digest floats enter exactly: jobs past the sixth significant digit of
   a float field get their own keys, while floats of six digits or fewer
   keep the keys they always had. *)
let digest_floats_exact () =
  let parse s =
    match Job.of_json (Result.get_ok (Json.of_string s)) with
    | Ok j -> Job.digest j
    | Error d -> Alcotest.failf "%s: %s" s (Core.Diag.to_string d)
  in
  let testgen p =
    parse (Printf.sprintf {|{"kind":"testgen","cell":"NAND2","p_good":%s}|} p)
  in
  check_str "p_good 0.9 keeps its key"
    "testgen-2c274565779421c837d1f839826c373c" (testgen "0.9");
  List.iter
    (fun (label, a, b) -> checkb label true (a <> b))
    [
      ("testgen p_good", testgen "0.9", testgen "0.9000004");
      ( "fault max_angle_deg",
        Job.digest (Job.fault ~max_angle_deg:8. "NAND2"),
        Job.digest (Job.fault ~max_angle_deg:8.0000001 "NAND2") );
      ( "dse pitch axis",
        Job.digest (Job.dse ~pitches:[ 4.; 5. ] "NAND2"),
        Job.digest (Job.dse ~pitches:[ 4.; 5.0000001 ] "NAND2") );
    ]

(* Adjacent doubles that "%g" printed alike (0.570423) used to share the
   placement pass's cache entry, so the second of two flow jobs was
   served the first job's placement. *)
let flow_pass_cache_exact_aspect () =
  let a = 0.57042253521126751 and b = 0.57042253521126762 in
  checkb "adjacent doubles" true (Float.succ a = b);
  let spec_digest doc =
    Option.get (Option.bind (Json.member "spec_digest" doc) Json.to_str)
  in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      let run pass_cache aspect =
        match
          Service.Runner.run ~pool ~pass_cache (Job.flow ~aspect Job.Full_adder)
        with
        | Ok doc -> doc
        | Error d -> Alcotest.fail (Core.Diag.to_string d)
      in
      let shared = Core.Pass.cache_create () in
      let doc_a = run shared a in
      let doc_b = run shared b in
      let fresh_b = run (Core.Pass.cache_create ()) b in
      checkb "the two aspects place differently" true
        (Json.to_string fresh_b <> Json.to_string doc_a);
      check_str "second document equals a fresh run" (Json.to_string fresh_b)
        (Json.to_string doc_b);
      checkb "spec digests differ" true
        (spec_digest doc_a <> spec_digest doc_b))

(* --- job codec and digest properties --- *)

let full_adder_text = Flow.Netlist_ir.to_string (Flow.Full_adder.netlist ())

(* Valid jobs of every kind.  Each field draws from a small set (floats
   mostly from a double and its successor), so two draws often differ
   in a single field and the digest property probes near-duplicates. *)
let job_gen =
  let open QCheck.Gen in
  let cell = oneofl [ "INV"; "NAND2"; "NOR3"; "AOI21" ] in
  let style = oneofl Layout.Cell.[ Immune_new; Immune_old; Vulnerable; Cmos ] in
  let scheme = oneofl [ `S1; `S2 ] in
  let small lo = int_range lo (lo + 1) in
  let near x lo hi =
    frequency [ (3, oneofl [ x; Float.succ x ]); (1, float_range lo hi) ]
  in
  let axis x lo hi = list_size (int_range 1 2) (near x lo hi) in
  let flow =
    let+ source =
      oneof
        [
          return Job.Full_adder;
          map (fun bits -> Job.Ripple bits) (small 4);
          map
            (fun text -> Job.Netlist_text text)
            (oneofl [ full_adder_text; "design inv\ninst u1 INV 4 A=a Z=b\n" ]);
          map
            (fun spec -> Job.Generated spec)
            (oneofl [ "mult8"; "lfsr16x20" ]);
        ]
    and+ scheme
    and+ aspect = near 0.57042253521126751 0.1 4. in
    Job.flow ~scheme ~aspect source
  in
  let fault =
    let+ cell
    and+ drive = small 1
    and+ style
    and+ trials = small 60
    and+ tracks_per_trial = small 0
    and+ max_angle_deg = near 8. 0. 90.
    and+ seed = small 42 in
    Job.fault ~drive ~style ~trials ~tracks_per_trial ~max_angle_deg ~seed cell
  in
  (* the library builds NOR3 at drive 1 only (Stdcell.Library.offers) *)
  let library_drive cell = if cell = "NOR3" then return 1 else small 1 in
  let characterize =
    cell >>= fun cell ->
    let+ drive = library_drive cell
    and+ loads = list_size (int_range 1 2) (small 1) in
    Job.characterize ~drive ~loads cell
  in
  let testgen =
    let+ cell
    and+ drive = small 1
    and+ style
    and+ scheme
    and+ trials = small 60
    and+ tracks_per_trial = small 0
    and+ max_angle_deg = near 8. 0. 90.
    and+ seed = small 42
    and+ max_spares = small 1
    and+ p_good = near 0.9 0. 1.
    and+ max_extra_tubes = small 3 in
    Job.testgen ~drive ~style ~scheme ~trials ~tracks_per_trial ~max_angle_deg
      ~seed ~max_spares ~p_good ~max_extra_tubes cell
  in
  let dse =
    cell >>= fun cell ->
    let+ style
    and+ pitches = axis 4. 1. 20.
    and+ p_metallic = axis 0.1 0. 1.
    and+ removal = axis 0.999 0. 1.
    and+ drives = list_size (int_range 1 2) (library_drive cell)
    and+ schemes = oneofl [ [ `S1 ]; [ `S2 ]; [ `S1; `S2 ] ]
    and+ load = small 2
    and+ max_trials = small 60
    and+ seed = small 42
    and+ adaptive = bool in
    Job.dse ~style ~pitches ~p_metallic ~removal ~drives ~schemes ~load
      ~max_trials ~seed ~adaptive cell
  in
  oneof [ flow; fault; characterize; testgen; dse ]

let wire j = Json.to_string (Job.to_json j)

let job_codec_roundtrip_prop =
  QCheck.Test.make ~name:"job codec round-trips every valid job" ~count:500
    (QCheck.make ~print:wire job_gen)
    (fun j ->
      Job.validate j = Ok ()
      && Job.of_json (Job.to_json j) = Ok j
      && Job.of_json (Result.get_ok (Json.of_string (wire j))) = Ok j)

(* The one digest shared by design: the full adder by name and the same
   netlist spelled out. *)
let canonical = function
  | Job.Flow ({ source = Job.Netlist_text t; _ } as f) when t = full_adder_text
    ->
    Job.Flow { f with source = Job.Full_adder }
  | j -> j

let job_digest_injective_prop =
  QCheck.Test.make ~name:"jobs share a digest only when their JSON is equal"
    ~count:300
    (QCheck.make
       ~print:(fun js -> String.concat "\n" (List.map wire js))
       QCheck.Gen.(list_size (return 8) job_gen))
    (fun jobs ->
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              wire (canonical a) = wire (canonical b)
              = (Job.digest a = Job.digest b))
            jobs)
        jobs)

(* max_angle_deg must be a finite angle in [0, 90]: a JSON 1e999 parses to
   infinity, and an infinite angle sprays NaN tracks that cross nothing.
   The digests and documents of in-range jobs were pinned before the
   range check existed. *)
let job_angle_range () =
  let job kind angle =
    Printf.sprintf {|{"kind":"%s","cell":"NAND2","trials":60,"max_angle_deg":%s}|}
      kind angle
  in
  let parse s =
    match Job.of_json (Result.get_ok (Json.of_string s)) with
    | Ok j -> j
    | Error d -> Alcotest.failf "%s: %s" s (Core.Diag.to_string d)
  in
  List.iter
    (fun kind ->
      List.iter
        (fun angle ->
          match Job.validate (parse (job kind angle)) with
          | Ok () -> Alcotest.failf "%s job with angle %s accepted" kind angle
          | Error d ->
            check_str "stage" "service.job" d.Core.Diag.stage;
            checkb (kind ^ " " ^ angle ^ " names max_angle_deg") true
              (List.mem_assoc "max_angle_deg" d.Core.Diag.context))
        [ "1e999"; "-1e999"; "-5"; "90.5" ];
      List.iter
        (fun angle ->
          checkb (kind ^ " " ^ angle ^ " accepted") true
            (Job.validate (parse (job kind angle)) = Ok ()))
        [ "0"; "90" ])
    [ "fault"; "testgen" ];
  let vulnerable = Job.fault ~style:Layout.Cell.Vulnerable ~trials:300 in
  let goldens =
    [
      ( "fault 8", vulnerable "NAND2",
        "fault-473ee3e797f89a3489144c3af1d51504",
        "81f0010595b815b71ff8def2a3ca25c8" );
      ( "fault 0", vulnerable ~max_angle_deg:0. "NAND2",
        "fault-4da6c6f3ca14a3c64c01914b8764a8f6",
        "14f6a1b4c6bacdc40a25e23f79ab63c8" );
      ( "fault 90", vulnerable ~max_angle_deg:90. "NAND2",
        "fault-1b0e97cd6b0cc72eef3b0187bd7e8804",
        "093213ca39802ffc26d5d557de7565dd" );
      ( "testgen 90", Job.testgen ~trials:120 ~max_angle_deg:90. "AOI21",
        "testgen-ad89253ac00360b64660662a274967df",
        "1cc16470351514aa75d408e2feceeb5b" );
    ]
  in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      List.iter
        (fun (label, j, digest, doc) ->
          check_str (label ^ " digest") digest (Job.digest j);
          match
            Service.Runner.run ~pool ~pass_cache:(Core.Pass.cache_create ()) j
          with
          | Ok d ->
            check_str (label ^ " document") doc
              (Digest.to_hex (Digest.string (Json.to_string d)))
          | Error e -> Alcotest.fail (Core.Diag.to_string e))
        goldens)

(* --- scheduler: the four acceptance properties --- *)

let quick_jobs () =
  (* cheap real workloads: tiny fault campaigns with distinct seeds *)
  List.init 5 (fun i ->
      Scheduler.request
        ~priority:(match i mod 3 with 0 -> Scheduler.High
                   | 1 -> Scheduler.Normal | _ -> Scheduler.Low)
        (Job.fault ~trials:40 ~seed:i "NAND2"))

(* (a) identical completion order and records at 1 vs 4 domains *)
let replay_domain_invariance () =
  let run domains =
    Scheduler.replay
      ~config:{ Scheduler.default_config with domains }
      ~seed:7 (quick_jobs ())
  in
  let r1 = run 1 and r4 = run 4 in
  check_int "same completion count" (List.length r1.Scheduler.completions)
    (List.length r4.Scheduler.completions);
  (* bit-for-bit: ids, outcomes, queue waits, virtual timestamps *)
  checkb "completions identical at 1 vs 4 domains" true
    (r1.Scheduler.completions = r4.Scheduler.completions);
  checkb "no rejections" true (r1.Scheduler.rejections = []);
  (* every job completed successfully *)
  List.iter
    (fun (c : Scheduler.completion) ->
      match c.Scheduler.outcome with
      | Scheduler.Done _ -> ()
      | _ -> Alcotest.failf "job %d did not complete" c.Scheduler.id)
    r1.Scheduler.completions

(* (b) the queue is bounded: job N+1 is rejected with a structured
   diagnostic, not stalled *)
let bounded_queue_rejects () =
  let config = { Scheduler.default_config with capacity = 3 } in
  Scheduler.with_scheduler ~config (fun t ->
      let submit i =
        Scheduler.submit t (Job.fault ~trials:40 ~seed:i "NAND2")
      in
      for i = 1 to 3 do
        match submit i with
        | Ok _ -> ()
        | Error d -> Alcotest.failf "job %d rejected early: %s" i
                       (Core.Diag.to_string d)
      done;
      (match submit 4 with
      | Ok _ -> Alcotest.fail "4th job accepted beyond capacity 3"
      | Error d ->
        check_str "stage" "service.scheduler" d.Core.Diag.stage;
        checkb "carries capacity" true
          (List.assoc_opt "capacity" d.Core.Diag.context = Some "3");
        checkb "carries depth" true
          (List.assoc_opt "queued" d.Core.Diag.context = Some "3"));
      check_int "rejection counted" 1 (Scheduler.stats t).Scheduler.rejected;
      (* draining frees capacity again *)
      ignore (Scheduler.drain t);
      checkb "accepts after drain" true (Result.is_ok (submit 5)))

(* (c) a job whose deadline passed while queued is expired, not run *)
let deadline_expires () =
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      (* ahead: a job costing 10 virtual ms; behind it: a 5 ms deadline *)
      let slow =
        Scheduler.submit t ~cost_ms:10. (Job.fault ~trials:40 ~seed:1 "NAND2")
      in
      let doomed =
        Scheduler.submit t ~deadline_ms:5.
          (Job.fault ~trials:40 ~seed:2 "NAND2")
      in
      let slow = Result.get_ok slow and doomed = Result.get_ok doomed in
      let completions = Scheduler.drain t in
      check_int "both reported" 2 (List.length completions);
      (match Scheduler.await t slow with
      | Ok (Scheduler.Done { cached = false; wall_ms; _ }) ->
        checkb "virtual wall is declared cost" true (wall_ms = 10.)
      | _ -> Alcotest.fail "slow job should complete");
      (match Scheduler.await t doomed with
      | Ok (Scheduler.Expired { late_ms }) ->
        checkb "expiry measured" true (late_ms = 5.)
      | Ok _ -> Alcotest.fail "doomed job ran past its deadline"
      | Error d -> Alcotest.failf "await: %s" (Core.Diag.to_string d));
      check_int "expired counted" 1 (Scheduler.stats t).Scheduler.expired;
      (* the expired job never executed *)
      check_int "only one execution" 1 (Scheduler.stats t).Scheduler.executed)

(* (d) resubmitting an identical job is answered from the persisted cache
   without re-running, across scheduler instances *)
let persisted_cache_answers () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "svc_cache_test_%d" (Unix.getpid ()))
  in
  let config =
    { Scheduler.default_config with cache_dir = Some dir;
      clock = Scheduler.Virtual }
  in
  let job = Job.fault ~trials:40 ~seed:3 "NAND2" in
  let result_of = function
    | Ok (Scheduler.Done { result; _ }) -> result
    | _ -> Alcotest.fail "job did not complete"
  in
  let first =
    Scheduler.with_scheduler ~config (fun t ->
        let id = Result.get_ok (Scheduler.submit t job) in
        let r = result_of (Scheduler.await t id) in
        check_int "first run executed" 1 (Scheduler.stats t).Scheduler.executed;
        (* resubmit within the same scheduler: memory cache *)
        let id2 = Result.get_ok (Scheduler.submit t job) in
        (match Scheduler.await t id2 with
        | Ok (Scheduler.Done { cached = true; wall_ms; result }) ->
          checkb "cache hit is free" true (wall_ms = 0.);
          checkb "same document" true (result = r)
        | _ -> Alcotest.fail "resubmission missed the in-memory cache");
        check_int "still one execution" 1 (Scheduler.stats t).Scheduler.executed;
        r)
  in
  (* a fresh scheduler instance: disk cache *)
  Scheduler.with_scheduler ~config (fun t ->
      let id = Result.get_ok (Scheduler.submit t job) in
      (match Scheduler.await t id with
      | Ok (Scheduler.Done { cached = true; result; _ }) ->
        checkb "identical document across processes" true (result = first)
      | _ -> Alcotest.fail "fresh scheduler missed the persisted cache");
      check_int "nothing executed" 0 (Scheduler.stats t).Scheduler.executed);
  (* cleanup *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* a served testgen job round-trips through the scheduler and the digest
   cache: the resubmission never re-runs the campaign yet returns the
   identical result document *)
let testgen_job_cached () =
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  let job = Job.testgen ~trials:60 "NAND2" in
  Scheduler.with_scheduler ~config (fun t ->
      let id = Result.get_ok (Scheduler.submit t job) in
      let first =
        match Scheduler.await t id with
        | Ok (Scheduler.Done { result; cached; _ }) ->
          checkb "first run not cached" false cached;
          result
        | _ -> Alcotest.fail "testgen job did not complete"
      in
      (* the document has the testgen shape *)
      checkb "failing reported" true
        (match Option.bind (Json.member "failing" first) Json.to_int with
        | Some n -> n > 0
        | None -> false);
      checkb "vectors reported" true (Json.member "vectors" first <> None);
      checkb "spare curve reported" true
        (Json.member "spare_curve" first <> None);
      let id2 = Result.get_ok (Scheduler.submit t job) in
      match Scheduler.await t id2 with
      | Ok (Scheduler.Done { result; cached = true; _ }) ->
        checkb "identical digest-cached document" true (result = first);
        check_int "one execution" 1 (Scheduler.stats t).Scheduler.executed
      | _ -> Alcotest.fail "resubmission missed the cache")

(* --- scheduler: policy details --- *)

let priority_and_fifo_order () =
  let reqs =
    [
      Scheduler.request ~priority:Scheduler.Low
        (Job.fault ~trials:40 ~seed:10 "NAND2");
      Scheduler.request ~priority:Scheduler.High
        (Job.fault ~trials:40 ~seed:11 "NAND2");
      Scheduler.request ~priority:Scheduler.Normal
        (Job.fault ~trials:40 ~seed:12 "NAND2");
      Scheduler.request ~priority:Scheduler.High
        (Job.fault ~trials:40 ~seed:13 "NAND2");
    ]
  in
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      let ids =
        List.map
          (fun (r : Scheduler.request) ->
            Result.get_ok
              (Scheduler.submit t ~priority:r.Scheduler.req_priority
                 r.Scheduler.req_job))
          reqs
      in
      let completions = Scheduler.drain t in
      let order =
        List.map (fun (c : Scheduler.completion) -> c.Scheduler.id)
          completions
      in
      (* both High jobs first in FIFO order, then Normal, then Low *)
      match (ids, order) with
      | [ low; high1; normal; high2 ], got ->
        Alcotest.(check (list int)) "strict priority, FIFO within class"
          [ high1; high2; normal; low ] got
      | _ -> Alcotest.fail "unexpected shape")

let cancel_queued_job () =
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      let a = Result.get_ok (Scheduler.submit t (Job.fault ~trials:40 "NAND2")) in
      let b =
        Result.get_ok (Scheduler.submit t (Job.fault ~trials:40 ~seed:5 "NAND2"))
      in
      checkb "cancel queued" true (Result.is_ok (Scheduler.cancel t b));
      checkb "double cancel is a diagnostic" true
        (Result.is_error (Scheduler.cancel t b));
      checkb "unknown id is a diagnostic" true
        (Result.is_error (Scheduler.cancel t 999));
      let completions = Scheduler.drain t in
      check_int "cancelled job produced no completion" 1
        (List.length completions);
      (match Scheduler.state t b with
      | Ok (Scheduler.Finished Scheduler.Cancelled) -> ()
      | _ -> Alcotest.fail "cancelled job state");
      match Scheduler.await t a with
      | Ok (Scheduler.Done _) -> ()
      | _ -> Alcotest.fail "surviving job should complete")

let failed_job_reported () =
  (* a characterize job for a load the simulator accepts but a cell sweep
     that errors: empty loads pass of_json? no — validate blocks it at
     submit.  Use a flow job with unparseable netlist text instead: it
     passes validation (nonempty) but fails inside the pipeline. *)
  let job = Job.flow (Job.Netlist_text "this is not a netlist\n") in
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      let id = Result.get_ok (Scheduler.submit t job) in
      match Scheduler.await t id with
      | Ok (Scheduler.Failed d) ->
        checkb "diagnostic has a stage" true
          (String.length d.Core.Diag.stage > 0);
        check_int "failure counted" 1 (Scheduler.stats t).Scheduler.failed
      | _ -> Alcotest.fail "broken netlist must fail, not crash or succeed")

(* --- replay: full determinism including caching --- *)

let replay_bit_for_bit () =
  let reqs =
    (* includes a duplicate (same seed) -> second occurrence is a cache
       hit inside the replay itself *)
    quick_jobs () @ [ Scheduler.request (Job.fault ~trials:40 ~seed:0 "NAND2") ]
  in
  let r1 = Scheduler.replay ~seed:42 reqs in
  let r2 = Scheduler.replay ~seed:42 reqs in
  checkb "two replays are bit-identical" true
    (r1.Scheduler.completions = r2.Scheduler.completions
    && r1.Scheduler.rejections = r2.Scheduler.rejections);
  checkb "replay observed a cache hit" true
    (List.exists
       (fun (c : Scheduler.completion) ->
         match c.Scheduler.outcome with
         | Scheduler.Done { cached = true; _ } -> true
         | _ -> false)
       r1.Scheduler.completions)

let replay_capacity_rejections () =
  let reqs =
    List.init 6 (fun i ->
        Scheduler.request (Job.fault ~trials:40 ~seed:(20 + i) "NAND2"))
  in
  let config = { Scheduler.default_config with capacity = 4 } in
  let r = Scheduler.replay ~config ~seed:1 reqs in
  check_int "two rejected" 2 (List.length r.Scheduler.rejections);
  check_int "four completed" 4 (List.length r.Scheduler.completions);
  (* rejections are reproducible too *)
  let r' = Scheduler.replay ~config ~seed:1 reqs in
  checkb "same rejection positions" true
    (List.map fst r.Scheduler.rejections
    = List.map fst r'.Scheduler.rejections)

(* --- NDJSON protocol --- *)

let line_of json = Json.to_string json

let protocol_session () =
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      let one line =
        match Server.handle t line with
        | [ e ] -> e
        | es -> Alcotest.failf "expected one event, got %d" (List.length es)
      in
      let submit seed =
        line_of
          (Json.Obj
             [
               ("op", Json.Str "submit");
               ("job",
                Job.to_json (Job.fault ~trials:40 ~seed "NAND2"));
             ])
      in
      (* accept two jobs *)
      let a = one (submit 1) in
      checkb "accepted" true (Json.member "ok" a = Some (Json.Bool true));
      check_str "event" "accepted"
        (Option.get (Option.bind (Json.member "event" a) Json.to_str));
      let id =
        Option.get (Option.bind (Json.member "id" a) Json.to_int)
      in
      ignore (one (submit 2));
      (* status of a queued job *)
      let st =
        one (line_of (Json.Obj
                        [ ("op", Json.Str "status"); ("id", Json.int id) ]))
      in
      check_str "queued" "queued"
        (Option.get (Option.bind (Json.member "state" st) Json.to_str));
      (* drain streams one done event per job plus the summary *)
      let events = Server.handle t "{\"op\":\"drain\"}" in
      check_int "2 done + drained" 3 (List.length events);
      let last = List.nth events 2 in
      check_str "drained" "drained"
        (Option.get (Option.bind (Json.member "event" last) Json.to_str));
      check_int "drained count" 2
        (Option.get (Option.bind (Json.member "jobs" last) Json.to_int));
      (* blank lines are ignored; garbage is an error event, not a crash *)
      checkb "blank ignored" true (Server.handle t "   " = []);
      (match Server.handle t "{nonsense" with
      | [ e ] ->
        checkb "error flagged" true
          (Json.member "ok" e = Some (Json.Bool false))
      | _ -> Alcotest.fail "one error event expected");
      match Server.handle t "{\"op\":\"frobnicate\"}" with
      | [ e ] ->
        checkb "unknown op flagged" true
          (Json.member "ok" e = Some (Json.Bool false))
      | _ -> Alcotest.fail "one error event expected")

let protocol_backpressure_visible () =
  let config =
    { Scheduler.default_config with capacity = 1;
      clock = Scheduler.Virtual }
  in
  Scheduler.with_scheduler ~config (fun t ->
      let submit seed =
        line_of
          (Json.Obj
             [
               ("op", Json.Str "submit");
               ("job", Job.to_json (Job.fault ~trials:40 ~seed "NAND2"));
             ])
      in
      ignore (Server.handle t (submit 1));
      match Server.handle t (submit 2) with
      | [ e ] ->
        checkb "not ok" true (Json.member "ok" e = Some (Json.Bool false));
        check_str "rejected event" "rejected"
          (Option.get (Option.bind (Json.member "event" e) Json.to_str));
        checkb "carries the diagnostic" true
          (Json.member "error" e <> None)
      | _ -> Alcotest.fail "one rejection event expected")

(* a wrongly-typed optional member is a visible rejection naming the
   field, never a silent fallback to the default *)
let submit_wrong_type_rejected () =
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      let req extra =
        line_of
          (Json.Obj
             ([
                ("op", Json.Str "submit");
                ("job", Job.to_json (Job.fault ~trials:40 "NAND2"));
              ]
             @ extra))
      in
      let expect_rejection field extra =
        match Server.handle t (req extra) with
        | [ e ] ->
          checkb (field ^ ": not ok") true
            (Json.member "ok" e = Some (Json.Bool false));
          check_str (field ^ ": rejected") "rejected"
            (Option.get (Option.bind (Json.member "event" e) Json.to_str));
          let message =
            match Json.member "error" e with
            | Some err ->
              Option.value ~default:""
                (Option.bind (Json.member "message" err) Json.to_str)
            | None -> ""
          in
          checkb (field ^ ": named in the diagnostic") true
            (contains ~sub:field message)
        | es -> Alcotest.failf "%s: expected one event, got %d" field
                  (List.length es)
      in
      expect_rejection "deadline_ms" [ ("deadline_ms", Json.Str "soon") ];
      expect_rejection "cost_ms" [ ("cost_ms", Json.Bool true) ];
      expect_rejection "priority" [ ("priority", Json.int 3) ];
      check_int "nothing admitted" 0 (Scheduler.stats t).Scheduler.queued;
      (* absent members still mean "use the default" *)
      (match Server.handle t (req []) with
      | [ e ] ->
        check_str "absent members fine" "accepted"
          (Option.get (Option.bind (Json.member "event" e) Json.to_str))
      | _ -> Alcotest.fail "plain submit should be accepted");
      (* and correctly-typed ones are honoured *)
      match
        Server.handle t
          (req [ ("deadline_ms", Json.Num 50.); ("priority", Json.Str "low") ])
      with
      | [ e ] ->
        check_str "typed members fine" "accepted"
          (Option.get (Option.bind (Json.member "event" e) Json.to_str))
      | _ -> Alcotest.fail "typed submit should be accepted")

(* --- concurrent socket server --- *)

let tmp_sock_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "cnfet_%s_%d.sock" tag (Unix.getpid ()))

let connect_retry path =
  let rec go tries =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    try
      Unix.connect sock (Unix.ADDR_UNIX path);
      sock
    with Unix.Unix_error _ when tries > 0 ->
      Unix.close sock;
      Thread.delay 0.05;
      go (tries - 1)
  in
  go 40

let event_of_line line =
  match Json.of_string line with
  | Ok v -> Option.bind (Json.member "event" v) Json.to_str
  | Error _ -> None

let socket_roundtrip () =
  let path = tmp_sock_path "svc" in
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      let server =
        Thread.create (fun () -> Server.serve_socket t ~path) ()
      in
      let sock = connect_retry path in
      let oc = Unix.out_channel_of_descr sock in
      let ic = Unix.in_channel_of_descr sock in
      output_string oc
        "{\"op\":\"submit\",\"job\":{\"kind\":\"fault\",\"cell\":\"NAND2\",\
         \"trials\":40}}\n";
      flush oc;
      let accepted = input_line ic in
      checkb "accepted over socket" true
        (match Json.of_string accepted with
        | Ok v -> Json.member "event" v = Some (Json.Str "accepted")
        | Error _ -> false);
      Unix.shutdown sock Unix.SHUTDOWN_SEND;
      (* EOF triggers the implicit drain: one done event, then EOF *)
      let done_line = input_line ic in
      checkb "done streamed" true
        (match Json.of_string done_line with
        | Ok v -> Json.member "event" v = Some (Json.Str "done")
        | Error _ -> false);
      checkb "stream closed" true
        (match input_line ic with
        | exception End_of_file -> true
        | _ -> false);
      Unix.close sock;
      Thread.join server;
      checkb "socket file removed" true (not (Sys.file_exists path)))

(* a client that disappears mid-response must not take the server down:
   the write raises EPIPE, the connection is reaped as an error, and the
   next client is served normally *)
let socket_client_killed_mid_response () =
  let path = tmp_sock_path "kill" in
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      let stats = ref None in
      let server =
        Thread.create
          (fun () ->
            stats :=
              Some (Server.serve_socket ~max_conns:2 ~connections:2 t ~path))
          ()
      in
      (* rude client: submit, then vanish without reading the response *)
      let rude = connect_retry path in
      let oc = Unix.out_channel_of_descr rude in
      output_string oc
        "{\"op\":\"submit\",\"job\":{\"kind\":\"fault\",\"cell\":\"NAND2\",\
         \"trials\":40}}\n";
      flush oc;
      Unix.close rude;
      (* polite client: full round trip must still work *)
      let sock = connect_retry path in
      let oc = Unix.out_channel_of_descr sock in
      let ic = Unix.in_channel_of_descr sock in
      output_string oc
        "{\"op\":\"submit\",\"job\":{\"kind\":\"fault\",\"cell\":\"NAND3\",\
         \"trials\":40}}\n";
      flush oc;
      checkb "polite client accepted" true
        (event_of_line (input_line ic) = Some "accepted");
      Unix.shutdown sock Unix.SHUTDOWN_SEND;
      checkb "polite client completion" true
        (event_of_line (input_line ic) = Some "done");
      Unix.close sock;
      Thread.join server;
      match !stats with
      | None -> Alcotest.fail "server thread produced no stats"
      | Some st ->
        check_int "both connections served" 2 st.Server.accepted;
        checkb "server survived and kept count" true (st.Server.conn_errors <= 1))

(* four simultaneous clients submitting overlapping (duplicate-digest)
   jobs: every client gets all its completions, each distinct job executes
   once, the overlap is answered from the cache, and the scheduler's
   ledger reconciles *)
let concurrent_socket_clients () =
  let n_clients = 4 and n_jobs = 3 in
  let path = tmp_sock_path "conc" in
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      let stats = ref None in
      let server =
        Thread.create
          (fun () ->
            stats :=
              Some
                (Server.serve_socket ~max_conns:n_clients
                   ~connections:n_clients t ~path))
          ()
      in
      let results = Array.make n_clients (0, 0) in
      let client k () =
        let sock = connect_retry path in
        let oc = Unix.out_channel_of_descr sock in
        let ic = Unix.in_channel_of_descr sock in
        (* every client submits the same job set: maximal overlap *)
        for i = 1 to n_jobs do
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("op", Json.Str "submit");
                    ( "job",
                      Job.to_json
                        (Job.fault ~trials:40 ~seed:(100 + i) "NAND2") );
                  ]));
          output_char oc '\n'
        done;
        flush oc;
        let accepted = ref 0 and completed = ref 0 in
        (try
           while !completed < n_jobs do
             match event_of_line (input_line ic) with
             | Some "accepted" -> incr accepted
             | Some "done" -> incr completed
             | _ -> ()
           done
         with End_of_file -> ());
        Unix.close sock;
        results.(k) <- (!accepted, !completed)
      in
      let threads =
        List.init n_clients (fun k -> Thread.create (client k) ())
      in
      List.iter Thread.join threads;
      Thread.join server;
      Array.iteri
        (fun k (accepted, completed) ->
          check_int (Printf.sprintf "client %d accepted" k) n_jobs accepted;
          check_int (Printf.sprintf "client %d completed" k) n_jobs completed)
        results;
      let s = Scheduler.stats t in
      check_int "distinct jobs executed once" n_jobs s.Scheduler.executed;
      check_int "overlap answered from cache"
        ((n_clients - 1) * n_jobs)
        s.Scheduler.cache_hits;
      check_int "ledger reconciles: done = executed + hits"
        (s.Scheduler.executed + s.Scheduler.cache_hits)
        s.Scheduler.done_;
      check_int "no failures" 0 s.Scheduler.failed;
      match !stats with
      | None -> Alcotest.fail "server thread produced no stats"
      | Some st ->
        check_int "all clients accepted" n_clients st.Server.accepted;
        check_int "no connection errors" 0 st.Server.conn_errors)

(* --- observability: stats pin, trace ids, health, metrics --- *)

let obj_keys = function
  | Json.Obj members -> List.map fst members
  | _ -> Alcotest.fail "expected an object"

let str_member name obj =
  Option.get (Option.bind (Json.member name obj) Json.to_str)

(* the stats reply is an operator API: adding a field is fine (extend this
   list), renaming or dropping one is a break this pin makes loud *)
let stats_field_set_pinned () =
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      (match Server.handle t "{\"op\":\"stats\"}" with
      | [ e ] ->
        Alcotest.(check (list string))
          "stats field set"
          [
            "ok"; "event"; "queued"; "queued_high"; "queued_normal";
            "queued_low"; "executed"; "cache_hits"; "done"; "failed";
            "cancelled"; "expired"; "rejected"; "capacity";
          ]
          (obj_keys e)
      | _ -> Alcotest.fail "one stats event expected");
      (* per-priority depths track the queue classes *)
      let submit p =
        ignore
          (Server.handle t
             (line_of
                (Json.Obj
                   [
                     ("op", Json.Str "submit");
                     ("priority", Json.Str p);
                     ("job", Job.to_json (Job.fault ~trials:10 "INV"));
                   ])))
      in
      submit "high";
      submit "normal";
      submit "normal";
      submit "low";
      match Server.handle t "{\"op\":\"stats\"}" with
      | [ e ] ->
        let n name =
          Option.get (Option.bind (Json.member name e) Json.to_int)
        in
        check_int "queued" 4 (n "queued");
        check_int "queued_high" 1 (n "queued_high");
        check_int "queued_normal" 2 (n "queued_normal");
        check_int "queued_low" 1 (n "queued_low")
      | _ -> Alcotest.fail "one stats event expected")

let trace_id_propagates () =
  Telemetry.reset ();
  Telemetry.enable ();
  Telemetry.Events.clear ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Events.clear ();
      Telemetry.disable ();
      Telemetry.reset ())
  @@ fun () ->
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      let accepted =
        match
          Server.handle t
            (line_of
               (Json.Obj
                  [
                    ("op", Json.Str "submit");
                    ("trace_id", Json.Str "tr-wire-7");
                    ("job", Job.to_json (Job.fault ~trials:20 "INV"));
                  ]))
        with
        | [ e ] -> e
        | _ -> Alcotest.fail "one accepted event expected"
      in
      check_str "accepted echoes the trace id" "tr-wire-7"
        (str_member "trace_id" accepted);
      let id =
        Option.get (Option.bind (Json.member "id" accepted) Json.to_int)
      in
      checkb "accessor agrees" true
        (Scheduler.trace_id t id = Some "tr-wire-7");
      (* wrong-type trace_id is a visible rejection naming the field *)
      (match
         Server.handle t
           (line_of
              (Json.Obj
                 [
                   ("op", Json.Str "submit");
                   ("trace_id", Json.int 3);
                   ("job", Job.to_json (Job.fault ~trials:20 "INV"));
                 ]))
       with
      | [ e ] ->
        checkb "rejected" true (Json.member "ok" e = Some (Json.Bool false))
      | _ -> Alcotest.fail "one rejection expected");
      (* the completion event on the wire carries it *)
      let events = Server.handle t "{\"op\":\"drain\"}" in
      let done_e =
        List.find
          (fun e ->
            Option.bind (Json.member "event" e) Json.to_str = Some "done")
          events
      in
      check_str "done event carries the trace id" "tr-wire-7"
        (str_member "trace_id" done_e);
      (* ... as do the structured event log entries for its whole life ... *)
      let kinds_with_trace =
        List.filter_map
          (fun (e : Telemetry.Events.event) ->
            if e.Telemetry.Events.trace_id = Some "tr-wire-7" then
              Some e.Telemetry.Events.kind
            else None)
          (Telemetry.Events.recent ())
      in
      List.iter
        (fun k ->
          checkb (k ^ " logged with trace id") true
            (List.mem k kinds_with_trace))
        [ "job.submitted"; "job.started"; "job.done" ];
      (* ... and the Chrome trace export *)
      let trace = Telemetry.chrome_trace (Telemetry.collect ()) in
      checkb "chrome trace carries the trace id" true
        (let needle = "\"trace_id\":\"tr-wire-7\"" in
         let nl = String.length needle and hl = String.length trace in
         let rec go i =
           i + nl <= hl && (String.sub trace i nl = needle || go (i + 1))
         in
         go 0))

let generated_trace_ids_deterministic () =
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  let generated () =
    Scheduler.with_scheduler ~config (fun t ->
        match Scheduler.submit t (Job.fault ~trials:20 "INV") with
        | Ok id -> Option.get (Scheduler.trace_id t id)
        | Error d -> Alcotest.fail (Core.Diag.to_string d))
  in
  let a = generated () and b = generated () in
  check_str "same job, same slot, same generated trace id" a b;
  checkb "shape is t<id>-<digest8>" true
    (String.length a > 2 && a.[0] = 't'
    && String.contains a '-'
    && String.length a - String.index a '-' = 9)

let health_and_metrics_ops () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
  @@ fun () ->
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      ignore
        (Server.handle t
           (line_of
              (Json.Obj
                 [
                   ("op", Json.Str "submit");
                   ("job", Job.to_json (Job.fault ~trials:20 "INV"));
                 ])));
      (match Server.handle t "{\"op\":\"health\"}" with
      | [ e ] ->
        check_str "health status" "ok" (str_member "status" e);
        checkb "uptime is a number" true
          (match Json.member "uptime_ms" e with
          | Some (Json.Num f) -> f >= 0.
          | _ -> false);
        check_int "queued visible" 1
          (Option.get (Option.bind (Json.member "queued" e) Json.to_int));
        checkb "in_flight present" true (Json.member "in_flight" e <> None)
      | _ -> Alcotest.fail "one health event expected");
      ignore (Server.handle t "{\"op\":\"drain\"}");
      match Server.handle t "{\"op\":\"metrics\"}" with
      | [ e ] ->
        check_str "content type" "text/plain; version=0.0.4"
          (str_member "content_type" e);
        let body = str_member "body" e in
        let samples = Telemetry.Prometheus.parse body in
        checkb "exposition parses to samples" true (samples <> []);
        checkb "submission counter scraped" true
          (List.exists
             (fun s ->
               s.Telemetry.Prometheus.metric = "service_submitted_total"
               && s.Telemetry.Prometheus.value = 1.)
             samples)
      | _ -> Alcotest.fail "one metrics event expected")

(* --- integer members outside the int range --- *)

(* an integer member beyond the int range is ill-typed: wrapped, 1e19
   and 1e300 both read as 0, naming job 0 or running seed 0 *)
let out_of_range_ints_rejected () =
  let bound = Float.ldexp 1. 62 in
  checkb "2^62 is out of range" true (Json.to_int (Json.Num bound) = None);
  checkb "-2^62 is min_int" true
    (Json.to_int (Json.Num (-.bound)) = Some min_int);
  checkb "1e18 reads exactly" true
    (Json.to_int (Json.Num 1e18) = Some 1_000_000_000_000_000_000);
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      let one line =
        match Server.handle t line with
        | [ e ] -> e
        | es -> Alcotest.failf "expected one event, got %d" (List.length es)
      in
      let message e =
        match Json.member "error" e with
        | Some err ->
          Option.value ~default:""
            (Option.bind (Json.member "message" err) Json.to_str)
        | None -> ""
      in
      check_str "job 0 accepted" "accepted"
        (str_member "event"
           (one
              (line_of
                 (Json.Obj
                    [
                      ("op", Json.Str "submit");
                      ("job", Job.to_json (Job.fault ~trials:20 "INV"));
                    ]))));
      List.iter
        (fun line ->
          let e = one line in
          check_str (line ^ ": error event") "error" (str_member "event" e);
          checkb (line ^ ": names the id") true (contains ~sub:"id" (message e)))
        [
          {|{"op":"cancel","id":1e19}|};
          {|{"op":"cancel","id":-1e19}|};
          {|{"op":"status","id":1e300}|};
        ];
      checkb "job 0 stays queued" true
        (Scheduler.state t 0 = Ok Scheduler.Queued);
      List.iter
        (fun (member, job) ->
          let e = one (Printf.sprintf {|{"op":"submit","job":%s}|} job) in
          check_str (member ^ ": rejected") "rejected" (str_member "event" e);
          checkb (member ^ ": named in the diagnostic") true
            (contains ~sub:member (message e)))
        [
          ("seed", {|{"kind":"fault","cell":"NAND2","seed":1e300}|});
          ("trials", {|{"kind":"testgen","cell":"NAND2","trials":1e19}|});
          ("loads", {|{"kind":"characterize","cell":"INV","loads":[1e300]}|});
        ];
      check_int "only job 0 admitted" 1 (Scheduler.stats t).Scheduler.queued)

(* --- the socket path belongs to the server only if it is a socket --- *)

let socket_path_not_clobbered () =
  let path = tmp_sock_path "precious" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "keep me");
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Scheduler.with_scheduler (fun t ->
      let refused = ref None in
      let server =
        Thread.create
          (fun () ->
            refused :=
              Some
                (match Server.serve_socket t ~path with
                | _ -> None
                | exception Core.Diag.Failure d -> Some d))
          ()
      in
      (* a server that took the path waits for a client: give it one, so
         the regression fails instead of hanging *)
      let rec wait n =
        if !refused = None && n > 0 then begin
          Thread.delay 0.05;
          wait (n - 1)
        end
      in
      wait 100;
      if !refused = None then Unix.close (connect_retry path);
      Thread.join server;
      match !refused with
      | Some (Some d) ->
        checkb "diagnostic names the path" true
          (List.assoc_opt "path" d.Core.Diag.context = Some path)
      | _ -> Alcotest.fail "serve_socket replaced a regular file");
  check_str "library call left the file alone" "keep me"
    (In_channel.with_open_bin path In_channel.input_all);
  (* the CLI maps the refusal to exit 2 *)
  let status =
    Sys.command
      (Filename.quote_command "../bin/cnfet_dk.exe" ~stderr:"/dev/null"
         [ "serve"; "--socket"; path ])
  in
  check_int "cnfet_dk serve exits 2" 2 status;
  check_str "CLI left the file alone" "keep me"
    (In_channel.with_open_bin path In_channel.input_all)

(* a socket left behind by a dead server is stale and is replaced *)
let stale_socket_replaced () =
  let path = tmp_sock_path "stale" in
  let old = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind old (Unix.ADDR_UNIX path);
  Unix.close old;
  Scheduler.with_scheduler (fun t ->
      let server = Thread.create (fun () -> Server.serve_socket t ~path) () in
      let sock = connect_retry path in
      Unix.close sock;
      Thread.join server;
      checkb "socket file removed at exit" false (Sys.file_exists path))

(* A request that is not valid UTF-8 gets exactly one error reply, which
   is itself valid UTF-8, and queues nothing. *)
let invalid_utf8_request_rejected () =
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      let submit trace_id =
        {|{"op":"submit","job":{"kind":"fault","cell":"NAND2","trials":40},|}
        ^ {|"trace_id":"|} ^ trace_id ^ {|"}|}
      in
      List.iter
        (fun line ->
          match Server.handle t line with
          | [ e ] ->
            let reply = Json.to_string e in
            checkb (reply ^ " is UTF-8") true (String.is_valid_utf_8 reply);
            check_str (reply ^ " is an error") "error"
              (Option.get (Option.bind (Json.member "event" e) Json.to_str))
          | es ->
            Alcotest.failf "%S: expected one reply, got %d" line
              (List.length es))
        [
          submit "t\xff";
          submit {|\ud800|};
          "{\"op\":\xff}";
          "{\"op\":\xc3\xa9}";
        ];
      check_int "nothing queued" 0 (Scheduler.stats t).Scheduler.queued)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
    Alcotest.test_case "json numbers" `Quick json_numbers;
    Alcotest.test_case "json float shortest roundtrip" `Quick
      json_float_shortest_roundtrip;
    QCheck_alcotest.to_alcotest json_float_roundtrip_prop;
    Alcotest.test_case "json unicode escape rejects" `Quick
      json_unicode_escape_rejects;
    Alcotest.test_case "json strict utf-8" `Quick json_strict_utf8;
    Alcotest.test_case "job codec roundtrip" `Quick job_codec_roundtrip;
    Alcotest.test_case "job codec rejects" `Quick job_codec_rejects;
    Alcotest.test_case "job validate and digest" `Quick
      job_validate_and_digest;
    Alcotest.test_case "job validate asks the library" `Quick
      job_validate_asks_library;
    Alcotest.test_case "job validate matches the library" `Quick
      job_validate_matches_library;
    Alcotest.test_case "job validate enforces the budgets" `Quick
      job_validate_budgets;
    Alcotest.test_case "job validate parses design specs" `Quick
      job_validate_parses_specs;
    Alcotest.test_case "flow spec digest pinned" `Quick
      flow_spec_digest_pinned;
    Alcotest.test_case "digest floats exact" `Quick digest_floats_exact;
    Alcotest.test_case "flow pass cache keys exact aspect" `Quick
      flow_pass_cache_exact_aspect;
    QCheck_alcotest.to_alcotest job_codec_roundtrip_prop;
    QCheck_alcotest.to_alcotest job_digest_injective_prop;
    Alcotest.test_case "job angle range" `Quick job_angle_range;
    Alcotest.test_case "replay invariant across domains" `Slow
      replay_domain_invariance;
    Alcotest.test_case "bounded queue rejects overload" `Quick
      bounded_queue_rejects;
    Alcotest.test_case "deadline expires queued job" `Quick deadline_expires;
    Alcotest.test_case "persisted cache answers resubmission" `Quick
      persisted_cache_answers;
    Alcotest.test_case "testgen job digest-cached" `Quick testgen_job_cached;
    Alcotest.test_case "priority and FIFO order" `Quick
      priority_and_fifo_order;
    Alcotest.test_case "cancel queued job" `Quick cancel_queued_job;
    Alcotest.test_case "failed job reported" `Quick failed_job_reported;
    Alcotest.test_case "replay bit for bit" `Slow replay_bit_for_bit;
    Alcotest.test_case "replay capacity rejections" `Quick
      replay_capacity_rejections;
    Alcotest.test_case "protocol session" `Quick protocol_session;
    Alcotest.test_case "protocol backpressure visible" `Quick
      protocol_backpressure_visible;
    Alcotest.test_case "submit wrong-type rejected" `Quick
      submit_wrong_type_rejected;
    Alcotest.test_case "invalid utf-8 request rejected" `Quick
      invalid_utf8_request_rejected;
    Alcotest.test_case "socket roundtrip" `Quick socket_roundtrip;
    Alcotest.test_case "socket client killed mid-response" `Quick
      socket_client_killed_mid_response;
    Alcotest.test_case "concurrent socket clients" `Quick
      concurrent_socket_clients;
    Alcotest.test_case "stats field set pinned" `Quick stats_field_set_pinned;
    Alcotest.test_case "trace id propagates" `Quick trace_id_propagates;
    Alcotest.test_case "generated trace ids deterministic" `Quick
      generated_trace_ids_deterministic;
    Alcotest.test_case "health and metrics ops" `Quick health_and_metrics_ops;
    Alcotest.test_case "out-of-range integers rejected" `Quick
      out_of_range_ints_rejected;
    Alcotest.test_case "socket path not clobbered" `Quick
      socket_path_not_clobbered;
    Alcotest.test_case "stale socket replaced" `Quick stale_socket_replaced;
  ]
