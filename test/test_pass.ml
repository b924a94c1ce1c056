(* Pass tests: structured diagnostics, the timed and measured pass step,
   its reports, and the flow's four passes in a row. *)

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- Diag --- *)

let diag_to_string () =
  let d =
    Core.Diag.error ~stage:"placer"
      ~context:[ ("instance", "u7"); ("cell", "NAND2") ]
      "no such cell"
  in
  let s = Core.Diag.to_string d in
  checkb "has stage" true (contains "placer" s);
  checkb "has message" true (contains "no such cell" s);
  checkb "has context" true (contains "instance=u7" s)

let diag_with_stage () =
  let d = Core.Diag.error ~stage:"library" "missing" in
  let r = Core.Diag.with_stage "placer" d in
  check_str "relabelled" "placer" r.Core.Diag.stage;
  checkb "origin recorded" true
    (List.assoc_opt "origin" r.Core.Diag.context = Some "library");
  (* relabelling to the same stage adds no origin *)
  let same = Core.Diag.with_stage "library" d in
  checkb "no origin when unchanged" true
    (List.assoc_opt "origin" same.Core.Diag.context = None)

(* Re-staging twice (an owner's diagnostic re-staged by Job.validate,
   then by the scheduler) keeps the innermost stage as the one origin, so
   the JSON context has no duplicate key. *)
let diag_restaged_one_origin () =
  let d =
    Core.Diag.error ~stage:"library" ~context:[ ("cell", "NOR2") ] "missing"
    |> Core.Diag.with_stage "service.job"
    |> Core.Diag.with_stage "service.scheduler"
  in
  check_str "outer stage" "service.scheduler" d.Core.Diag.stage;
  Alcotest.(check (list (pair string string)))
    "one origin, the innermost"
    [ ("cell", "NOR2"); ("origin", "library") ]
    d.Core.Diag.context;
  match
    Core.Json.of_string (Core.Json.to_string (Core.Diag.to_json d))
    |> Result.to_option
    |> Fun.flip Option.bind (Core.Json.member "context")
  with
  | Some (Core.Json.Obj kvs) ->
    let keys = List.map fst kvs in
    check_int "unique context keys" (List.length keys)
      (List.length (List.sort_uniq compare keys))
  | _ -> Alcotest.fail "no context object"

let diag_with_context () =
  let d = Core.Diag.error ~stage:"s" ~context:[ ("a", "1") ] "m" in
  let d = Core.Diag.with_context [ ("b", "2") ] d in
  checkb "keeps old" true (List.mem_assoc "a" d.Core.Diag.context);
  checkb "adds new" true (List.mem_assoc "b" d.Core.Diag.context)

let diag_json () =
  let d =
    Core.Diag.error ~stage:"parse" ~context:[ ("line", "3") ] "bad \"token\""
  in
  let j = Core.Json.to_string (Core.Diag.to_json d) in
  checkb "escapes quotes" true (contains "bad \\\"token\\\"" j);
  checkb "has stage field" true (contains "\"stage\":\"parse\"" j);
  checkb "has context" true (contains "\"line\":\"3\"" j)

let diag_ok_exn () =
  check_int "passes value through" 7 (Core.Diag.ok_exn (Ok 7));
  checkb "raises Diag.Failure" true
    (try
       ignore (Core.Diag.ok_exn (Error (Core.Diag.error ~stage:"s" "boom")));
       false
     with Core.Diag.Failure d -> d.Core.Diag.message = "boom")

(* --- pass steps --- *)

let value x = [ ("value", x) ]

let step_runs_and_measures () =
  let r, report =
    Core.Pass.step ~trace:ignore ~counters:value "double" (fun () -> Ok 10)
  in
  checkb "result" true (r = Ok 10);
  check_str "pass name" "double" report.Core.Pass.pass_name;
  checkb "wall time measured" true (report.Core.Pass.wall_s >= 0.);
  checkb "counters measured on the output" true
    (Lazy.force report.Core.Pass.counters = [ ("value", 10) ])

(* Counters are computed once, when read: at the exit event of a traced
   step, on first force of an untraced one. *)
let step_counters_on_demand () =
  let calls = ref 0 in
  let counters x =
    incr calls;
    value x
  in
  let _, untraced = Core.Pass.step ~counters "double" (fun () -> Ok 10) in
  check_int "untraced: not computed" 0 !calls;
  checkb "untraced: unforced" false (Lazy.is_val untraced.Core.Pass.counters);
  ignore (Core.Pass.report_to_text { passes = [ untraced ]; total_s = 0. });
  ignore (Core.Pass.report_to_json { passes = [ untraced ]; total_s = 0. });
  check_int "rendered twice, computed once" 1 !calls;
  let _, traced =
    Core.Pass.step ~trace:ignore ~counters "double" (fun () -> Ok 10)
  in
  check_int "traced: computed at exit" 2 !calls;
  checkb "traced: same counters" true
    (Lazy.force traced.Core.Pass.counters = [ ("value", 10) ]);
  check_int "traced: not recomputed" 2 !calls

let step_failure_tags_the_pass () =
  let seen = ref [] in
  let r, report =
    Core.Pass.step
      ~trace:(fun e -> seen := Core.Pass.trace_event_to_string e :: !seen)
      ~counters:value "boom"
      (fun () -> Core.Diag.fail ~stage:"boom" "always fails")
  in
  (match r with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error d ->
    check_str "failing stage" "boom" d.Core.Diag.stage;
    checkb "pass recorded in context" true
      (List.assoc_opt "pass" d.Core.Diag.context = Some "boom"));
  checkb "a failed pass has no counters" true
    (Lazy.force report.Core.Pass.counters = []);
  match List.rev !seen with
  | [ enter; failed ] ->
    check_str "enter" "-> boom" enter;
    checkb "failure names the pass" true (contains "!! boom" failed)
  | evs -> Alcotest.failf "expected two events, got %d" (List.length evs)

let two_steps ~trace =
  let double =
    snd (Core.Pass.step ~trace ~counters:value "double" (fun () -> Ok 4))
  in
  let incr = snd (Core.Pass.step ~trace ~counters:value "incr" (fun () -> Ok 5)) in
  { Core.Pass.passes = [ double; incr ]; total_s = 0. }

let trace_events () =
  let seen = ref [] in
  ignore
    (two_steps ~trace:(fun e ->
         seen := Core.Pass.trace_event_to_string e :: !seen));
  let events = List.rev !seen in
  check_int "enter/exit per pass" 4 (List.length events);
  checkb "first is enter double" true (contains "double" (List.hd events));
  (* exit lines are self-describing: the artifact counters *)
  let exit_double = List.nth events 1 in
  checkb "exit starts with the pass" true (contains "<- double (" exit_double);
  checkb "exit has counters" true (contains "ms) value=4" exit_double)

let report_rendering () =
  let report = two_steps ~trace:ignore in
  let text = Core.Pass.report_to_text report in
  checkb "text has rows" true
    (contains "double" text && contains "incr" text && contains "total" text);
  checkb "text header" true (contains "wall-ms  counters\n" text);
  let json = Core.Pass.report_to_json report in
  checkb "json has passes" true (contains "\"passes\"" json);
  checkb "json has counters" true (contains "\"value\":5" json)

(* --- the real flow --- *)

let lib = Stdcell.Library.cnfet_exn ~drives:[ 2; 4; 7; 9 ] ()

let flow_runs () =
  let spec = Flow.Pipeline.spec_of_netlist ~lib (Flow.Full_adder.netlist ()) in
  let r, report = Flow.Pipeline.run spec in
  (match r with
  | Error d -> Alcotest.fail (Core.Diag.to_string d)
  | Ok res ->
    check_int "13 instances placed" 13
      (List.length res.Flow.Pipeline.placement.Flow.Placer.cells);
    checkb "gds bytes written" true
      (String.length res.Flow.Pipeline.gds_bytes > 0));
  Alcotest.(check (list string))
    "all four passes ran" Flow.Pipeline.pass_names
    (List.map (fun p -> p.Core.Pass.pass_name) report.Core.Pass.passes)

(* a design that validates but cannot be placed: the flow stops at the
   failing pass, and the passes after it never run *)
let pipeline_stops_on_error () =
  let undersized =
    Result.get_ok
      (Flow.Netlist_ir.of_string
         "design tiny\ninput A\noutput Z\ninst u1 INV 1 out=Z A=A\n")
  in
  let r, report = Flow.Pipeline.run (Flow.Pipeline.spec_of_netlist ~lib undersized) in
  (match r with
  | Ok _ -> Alcotest.fail "expected a placement failure"
  | Error d ->
    checkb "pass recorded in context" true
      (List.assoc_opt "pass" d.Core.Diag.context = Some "place"));
  Alcotest.(check (list string))
    "ran validate then place" [ "validate"; "place" ]
    (List.map (fun p -> p.Core.Pass.pass_name) report.Core.Pass.passes)

(* The untraced flow with telemetry off leaves every pass's counters
   unforced; forced afterwards, they are what a traced run reports. *)
let flow_counters_on_demand () =
  let spec = Flow.Pipeline.spec_of_netlist ~lib (Flow.Full_adder.netlist ()) in
  checkb "telemetry off" false (Telemetry.enabled ());
  let _, report = Flow.Pipeline.run spec in
  List.iter
    (fun p ->
      checkb (p.Core.Pass.pass_name ^ " counters unforced") false
        (Lazy.is_val p.Core.Pass.counters))
    report.Core.Pass.passes;
  let exits = ref [] in
  let trace = function
    | Core.Pass.Exit (name, _, counters) -> exits := (name, counters) :: !exits
    | Core.Pass.Enter _ | Core.Pass.Failed _ -> ()
  in
  ignore (Flow.Pipeline.run ~trace spec);
  Alcotest.(check (list (pair string (list (pair string int)))))
    "forced counters equal the traced ones" (List.rev !exits)
    (List.map
       (fun p -> (p.Core.Pass.pass_name, Lazy.force p.Core.Pass.counters))
       report.Core.Pass.passes)

let flow_reports_diagnostics () =
  (* an unknown cell fails validation with a stage-tagged diagnostic, and
     the report still covers the passes that ran *)
  let bad =
    {
      Flow.Netlist_ir.design = "bad";
      inputs = [ "A" ];
      outputs = [ "Z" ];
      instances =
        [ { Flow.Netlist_ir.inst_name = "u1"; cell = "FROB"; drive = 1;
            output = "Z"; conns = [ ("A", "A") ] } ];
    }
  in
  let spec = Flow.Pipeline.spec_of_netlist ~lib bad in
  let r, report = Flow.Pipeline.run spec in
  (match r with
  | Ok _ -> Alcotest.fail "expected validation failure"
  | Error d ->
    check_str "netlist stage" "netlist" d.Core.Diag.stage;
    checkb "names the cell" true
      (contains "FROB" (Core.Diag.to_string d)));
  Alcotest.(check (list string))
    "stopped after validate" [ "validate" ]
    (List.map (fun p -> p.Core.Pass.pass_name) report.Core.Pass.passes)

let suite =
  [
    Alcotest.test_case "diag to_string" `Quick diag_to_string;
    Alcotest.test_case "diag with_stage" `Quick diag_with_stage;
    Alcotest.test_case "diag re-staged keeps one origin" `Quick
      diag_restaged_one_origin;
    Alcotest.test_case "diag with_context" `Quick diag_with_context;
    Alcotest.test_case "diag json" `Quick diag_json;
    Alcotest.test_case "diag ok_exn" `Quick diag_ok_exn;
    Alcotest.test_case "step runs and measures" `Quick step_runs_and_measures;
    Alcotest.test_case "step failure tags the pass" `Quick
      step_failure_tags_the_pass;
    Alcotest.test_case "step counters on demand" `Quick step_counters_on_demand;
    Alcotest.test_case "trace events" `Quick trace_events;
    Alcotest.test_case "report rendering" `Quick report_rendering;
    Alcotest.test_case "flow runs" `Slow flow_runs;
    Alcotest.test_case "pipeline stops on error" `Quick pipeline_stops_on_error;
    Alcotest.test_case "flow counters on demand" `Quick flow_counters_on_demand;
    Alcotest.test_case "flow reports diagnostics" `Quick
      flow_reports_diagnostics;
  ]
