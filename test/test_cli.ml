(* The CLI as a client of the job runner: golden stdout and exit status of
   the compute subcommands (captured before they ran through
   Service.Runner), their JSON documents against the runner's, and the
   input errors that now exit 2 with the service's diagnostic. *)

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let slurp path = In_channel.with_open_bin path In_channel.input_all
let md5 s = Digest.to_hex (Digest.string s)

(* (exit status, stdout, stderr) of one cnfet_dk run *)
let cnfet_dk args =
  let out = Filename.temp_file "cnfet_dk" ".out" in
  let err = Filename.temp_file "cnfet_dk" ".err" in
  let status =
    Sys.command
      (Filename.quote_command "../bin/cnfet_dk.exe" args ~stdin:"/dev/null"
         ~stdout:out ~stderr:err)
  in
  let o = slurp out and e = slurp err in
  Sys.remove out;
  Sys.remove err;
  (status, o, e)

let golden ?(status = 0) args expected =
  let name = String.concat " " args in
  let s, out, _ = cnfet_dk args in
  check_int (name ^ ": status") status s;
  check_str (name ^ ": stdout") expected out

let with_temp suffix f =
  let path = Filename.temp_file "cnfet_dk" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* --- goldens --- *)

let fault_golden () =
  golden
    [ "fault"; "NAND2"; "--trials"; "300" ]
    {|NAND2_4X_new: 0/300 functional failures (0.00%), 0 shorted (0 fight, 0 float), 1392 stray CNTs
horizontal sweep: immune in every corridor
|};
  golden ~status:1
    [ "fault"; "NAND2"; "--style"; "vulnerable"; "--trials"; "300";
      "--domains"; "2" ]
    {|NAND2_4X_vuln: 112/300 functional failures (37.33%), 112 shorted (112 fight, 0 float), 1164 stray CNTs
horizontal sweep: FAILS in 1 corridors
|}

let test_gen_args = [ "test-gen"; "--cell"; "NAND2"; "--trials"; "200" ]

let test_gen_golden () =
  golden test_gen_args
    {|testgen NAND2_4X_vuln style=vulnerable scheme=s1
campaign: trials=200 failing=71 (35.50%) classes=1
fault dictionary:
  class 1: count=71 first=11 rows={3:fight}
vectors: greedy=[3] covered=1/1 optimal=1
spare-track repair:
  spares=0 repaired=0 yield=64.50%
  spares=1 repaired=65 yield=97.00%
  spares=2 repaired=71 yield=100.00%
redundancy (N-of-M tubes):
  tubes=4 overhead=1.00x yield=0.1853
  tubes=5 overhead=1.25x yield=0.7119
  tubes=6 overhead=1.50x yield=0.9381
  tubes=7 overhead=1.75x yield=0.9891
  tubes=8 overhead=2.00x yield=0.9983
|};
  let s, out, _ = cnfet_dk (test_gen_args @ [ "--json" ]) in
  check_int "json status" 0 s;
  check_str "json digest" "8e228343b683e0ed2eb421d40ce2a373" (md5 out)

let characterize_golden () =
  golden
    [ "characterize"; "NAND2"; "--load"; "2" ]
    {|NAND2_4X (load 2 x INV1X):
  pin A   rise    6.6 ps, fall    5.0 ps, energy   1.99 fJ/cycle
  pin B   rise    5.7 ps, fall    4.7 ps, energy   1.55 fJ/cycle
|};
  golden
    [ "characterize"; "NAND2"; "--load"; "2"; "--cmos" ]
    {|NAND2_4X (load 2 x INV1X):
  pin A   rise   14.9 ps, fall    9.9 ps, energy   3.28 fJ/cycle
  pin B   rise   12.9 ps, fall    9.1 ps, energy   2.64 fJ/cycle
|}

let dse_args =
  [ "dse"; "--cell"; "NAND2"; "--pitches"; "4,6"; "--p-metallic"; "0.1";
    "--removal"; "0.999"; "--drives"; "1"; "--trials"; "60" ]

let dse_text =
  {|DSE campaign: NAND2 (vulnerable layout), adaptive sweep over 4 points
  pitch  p_met  removal  drive scheme tubes  delay_ps  energy_fj  yield [lo, hi]          trials  area
      6    0.1    0.999      1     s2    17      7.92      0.706  0.630 [0.439, 0.787]      60  200
front: 1 points; evaluated 4 of 4 (0 pruned) in 1 rounds, 240 trials
|}

let dse_golden () =
  golden dse_args dse_text;
  let s, out, _ = cnfet_dk (dse_args @ [ "--report"; "json" ]) in
  check_int "json status" 0 s;
  check_str "json digest" "77137ade4eb316b93916ff3c4fb1b89d" (md5 out);
  with_temp ".csv" @@ fun csv ->
  golden (dse_args @ [ "--csv"; csv ]) dse_text;
  check_str "csv"
    {|pitch_nm,p_metallic,removal_eff,drive,scheme,tubes,delay_ps,energy_fj,yield,yield_lo,yield_hi,trials,area_lambda2
6,0.1,0.999,1,s2,17,7.92226,0.705721,0.630111,0.438792,0.786825,60,200
|}
    (slurp csv)

let flow_golden () =
  with_temp ".gds" @@ fun gds ->
  golden
    [ "flow"; "--design"; "mult8"; "-o"; gds ]
    (Printf.sprintf
       "mult8: 584 cells, die 434x483 lambda, utilization 0.65\nwrote %s\n"
       gds);
  check_str "gds digest" "61e571a19889ce37101075de60710e74" (md5 (slurp gds))

(* [s] with the number after each occurrence of [key] replaced by [_] *)
let mask ~key s =
  let b = Buffer.create (String.length s) in
  let n = String.length s and k = String.length key in
  let numeric c = (c >= '0' && c <= '9') || String.contains ".eE+-" c in
  let rec go i =
    if i < n then
      if i + k <= n && String.sub s i k = key then begin
        Buffer.add_string b key;
        Buffer.add_char b '_';
        let j = ref (i + k) in
        while !j < n && numeric s.[!j] do incr j done;
        go !j
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* The pass report and the trace, wall times masked, as they were when
   every run computed its counters: counters computed on demand read
   the same. *)
let flow_report_golden () =
  with_temp ".gds" @@ fun gds ->
  let s, out, err =
    cnfet_dk
      [ "flow"; "--design"; "mult8"; "-o"; gds; "--report"; "json"; "--trace" ]
  in
  check_int "status" 0 s;
  check_str "report"
    (Printf.sprintf
       {|mult8: 584 cells, die 434x483 lambda, utilization 0.65
wrote %s
{"total_s":_,"passes":[{"name":"validate","wall_s":_,"counters":{"instances":584,"nets":600}},{"name":"place","wall_s":_,"counters":{"cells":584,"die_area":209622,"hpwl":77824}},{"name":"layout","wall_s":_,"counters":{"unique_cells":4,"layers":32}},{"name":"export","wall_s":_,"counters":{"structures":5,"gds_bytes":799792}}]}
|}
       gds)
    (out |> mask ~key:{|"total_s":|} |> mask ~key:{|"wall_s":|});
  check_str "trace"
    {|trace: -> validate
trace: <- validate (_ ms) instances=584 nets=600
trace: -> place
trace: <- place (_ ms) cells=584 die_area=209622 hpwl=77824
trace: -> layout
trace: <- layout (_ ms) unique_cells=4 layers=32
trace: -> export
trace: <- export (_ ms) structures=5 gds_bytes=799792
|}
    (mask ~key:" (" err)

(* --- the CLI prints the runner's documents --- *)

let runner_document job =
  Parallel.Pool.with_pool ~domains:1 @@ fun pool ->
  match Service.Runner.run ~pool job with
  | Ok doc -> Core.Json.to_string doc ^ "\n"
  | Error d -> Alcotest.fail (Core.Diag.to_string d)

let json_matches_runner () =
  let _, tg, _ = cnfet_dk (test_gen_args @ [ "--json" ]) in
  check_str "test-gen --json"
    (runner_document (Service.Job.testgen ~trials:200 "NAND2"))
    tg;
  let _, dse, _ = cnfet_dk (dse_args @ [ "--report"; "json" ]) in
  check_str "dse --report json"
    (runner_document
       (Service.Job.dse ~pitches:[ 4.; 6. ] ~p_metallic:[ 0.1 ]
          ~removal:[ 0.999 ] ~drives:[ 1 ] ~max_trials:60 "NAND2"))
    dse

(* --- input errors: a Diag and exit 2 --- *)

let rejected args ~names =
  let name = String.concat " " args in
  let s, out, err = cnfet_dk args in
  check_int (name ^ ": status") 2 s;
  check_str (name ^ ": no stdout") "" out;
  checkb (name ^ ": names " ^ names) true (contains names err)

let unknown_cell_exits_2 () =
  List.iter
    (rejected ~names:"unknown cell function FOO (cell=FOO")
    [
      [ "layout"; "FOO" ];
      [ "fault"; "FOO" ];
      [ "test-gen"; "--cell"; "FOO" ];
      [ "characterize"; "FOO" ];
      [ "dse"; "--cell"; "FOO" ];
    ]

(* NOR2 exists at drive 1 only: characterize's default drive 4 and dse's
   default drive axis 1,2 are refused before any library is built *)
let absent_drive_exits_2 () =
  List.iter
    (fun (args, drive) ->
      rejected args
        ~names:
          (Printf.sprintf
             "service.job: error: no cell NOR2 at drive %d: the library \
              builds it at drive 1 only"
             drive))
    [ ([ "characterize"; "NOR2" ], 4); ([ "dse"; "--cell"; "NOR2" ], 2) ]

(* An output path in a missing directory is refused before the job runs:
   no work, no stdout, a Diag naming the path. *)
let unwritable_output_exits_2 () =
  let bad = "/nonexistent-cnfet-dk-dir/out" in
  List.iter
    (rejected ~names:("output: error: cannot write " ^ bad))
    [
      [ "flow"; "--design"; "mult8"; "-o"; bad ];
      [ "layout"; "NAND2"; "--gds"; bad ];
      dse_args @ [ "--csv"; bad ];
      [ "serve"; "--event-log"; bad ];
      [ "fault"; "NAND2"; "--trials"; "50"; "--trace-out"; bad ];
    ]

let negative_load_exits_2 () =
  rejected ~names:"load=-1" [ "characterize"; "NAND2"; "--load=-1" ];
  rejected ~names:"load=-1" [ "characterize"; "NAND2"; "--load=-1"; "--cmos" ]

let suite =
  [
    Alcotest.test_case "fault golden" `Quick fault_golden;
    Alcotest.test_case "test-gen golden" `Quick test_gen_golden;
    Alcotest.test_case "characterize golden" `Quick characterize_golden;
    Alcotest.test_case "dse golden" `Quick dse_golden;
    Alcotest.test_case "flow golden" `Quick flow_golden;
    Alcotest.test_case "flow report golden" `Quick flow_report_golden;
    Alcotest.test_case "json matches runner" `Quick json_matches_runner;
    Alcotest.test_case "unknown cell exits 2" `Quick unknown_cell_exits_2;
    Alcotest.test_case "negative load exits 2" `Quick negative_load_exits_2;
    Alcotest.test_case "absent drive exits 2" `Quick absent_drive_exits_2;
    Alcotest.test_case "unwritable output exits 2" `Quick
      unwritable_output_exits_2;
  ]
