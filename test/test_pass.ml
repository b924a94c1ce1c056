(* Pass-manager tests: structured diagnostics, pipeline execution and
   reporting, and the digest-keyed artifact cache that lets the flow skip
   unchanged stages. *)

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

(* --- pass manager --- *)

let double_pass =
  Core.Pass.make ~name:"double"
    ~digest:string_of_int
    ~counters:(fun x -> [ ("value", x) ])
    (fun x -> Ok (x * 2))

let incr_pass = Core.Pass.make ~name:"incr" (fun x -> Ok (x + 1))

let fail_pass =
  Core.Pass.make ~name:"boom" (fun (_ : int) ->
      (Core.Diag.fail ~stage:"boom" "always fails" : (int, Core.Diag.t) result))

let pipeline_executes () =
  let pl = Core.Pass.(pass double_pass >>> incr_pass) in
  Alcotest.(check (list string))
    "names in order" [ "double"; "incr" ] (Core.Pass.names pl);
  let r, report = Core.Pass.execute pl 5 in
  checkb "result" true (r = Ok 11);
  check_int "two pass reports" 2 (List.length report.Core.Pass.passes);
  let first = List.hd report.Core.Pass.passes in
  check_str "first pass" "double" first.Core.Pass.pass_name;
  checkb "not cached" false first.Core.Pass.cached;
  checkb "counters recorded" true
    (first.Core.Pass.counters = [ ("value", 10) ])

let pipeline_stops_on_error () =
  let pl = Core.Pass.(pass double_pass >>> fail_pass >>> incr_pass) in
  let r, report = Core.Pass.execute pl 1 in
  (match r with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error d ->
    check_str "failing stage" "boom" d.Core.Diag.stage;
    checkb "pass recorded in context" true
      (List.assoc_opt "pass" d.Core.Diag.context = Some "boom"));
  (* the report covers only the passes that ran *)
  Alcotest.(check (list string))
    "ran double then boom" [ "double"; "boom" ]
    (List.map
       (fun p -> p.Core.Pass.pass_name)
       report.Core.Pass.passes)

let pipeline_cache_hits () =
  let cache = Core.Pass.cache_create () in
  let pl = Core.Pass.(pass double_pass >>> incr_pass) in
  let r1, rep1 = Core.Pass.execute ~cache pl 5 in
  let r2, rep2 = Core.Pass.execute ~cache pl 5 in
  checkb "same result" true (r1 = r2);
  let cached_of rep =
    List.map (fun p -> (p.Core.Pass.pass_name, p.Core.Pass.cached)) rep.Core.Pass.passes
  in
  Alcotest.(check (list (pair string bool)))
    "first run all live"
    [ ("double", false); ("incr", false) ]
    (cached_of rep1);
  (* only the digested pass participates in the cache *)
  Alcotest.(check (list (pair string bool)))
    "second run serves double from cache"
    [ ("double", true); ("incr", false) ]
    (cached_of rep2);
  (* a different input misses *)
  let _, rep3 = Core.Pass.execute ~cache pl 6 in
  Alcotest.(check (list (pair string bool)))
    "changed input re-runs"
    [ ("double", false); ("incr", false) ]
    (cached_of rep3)

(* a step computes its key once, for both the lookup and the store, and
   not at all without a cache *)
let digest_once_per_step () =
  let calls = ref 0 in
  let counted =
    Core.Pass.make ~name:"counted"
      ~digest:(fun x ->
        incr calls;
        string_of_int x)
      (fun x -> Ok (x + 1))
  in
  let pl = Core.Pass.pass counted in
  ignore (Core.Pass.execute pl 1);
  check_int "no cache, no key" 0 !calls;
  let cache = Core.Pass.cache_create () in
  ignore (Core.Pass.execute ~cache pl 1);
  check_int "a miss keys once" 1 !calls;
  ignore (Core.Pass.execute ~cache pl 1);
  check_int "a hit keys once" 2 !calls

let trace_events () =
  let seen = ref [] in
  let trace e = seen := Core.Pass.trace_event_to_string e :: !seen in
  let pl = Core.Pass.(pass double_pass >>> incr_pass) in
  ignore (Core.Pass.execute ~trace pl 2);
  let events = List.rev !seen in
  check_int "enter/exit per pass" 4 (List.length events);
  checkb "first is enter double" true (contains "double" (List.hd events));
  (* exit lines are self-describing: cached flag + artifact counters *)
  let exit_double = List.nth events 1 in
  checkb "exit has cached flag" true (contains "cached=no" exit_double);
  checkb "exit has counters" true (contains "value=4" exit_double)

let trace_cache_hit_counters () =
  let cache = Core.Pass.cache_create () in
  let pl = Core.Pass.pass double_pass in
  ignore (Core.Pass.execute ~cache pl 3);
  let seen = ref [] in
  let trace e = seen := Core.Pass.trace_event_to_string e :: !seen in
  ignore (Core.Pass.execute ~cache ~trace pl 3);
  match !seen with
  | [ hit ] ->
    checkb "hit marked cached" true (contains "cached=yes" hit);
    checkb "hit carries counters" true (contains "value=6" hit)
  | evs -> Alcotest.failf "expected one cache-hit event, got %d" (List.length evs)

let report_rendering () =
  let pl = Core.Pass.(pass double_pass >>> incr_pass) in
  let _, report = Core.Pass.execute pl 3 in
  let text = Core.Pass.report_to_text report in
  checkb "text has rows" true
    (contains "double" text && contains "incr" text && contains "total" text);
  let json = Core.Pass.report_to_json report in
  checkb "json has passes" true (contains "\"passes\"" json);
  checkb "json has counters" true (contains "\"value\":6" json)

(* --- the real flow through the pass manager --- *)

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
    "all five passes ran" Flow.Pipeline.pass_names
    (List.map (fun p -> p.Core.Pass.pass_name) report.Core.Pass.passes)

(* the ISSUE acceptance scenario: edit only placement parameters and the
   front of the flow is served from the cache *)
let flow_cache_skips_upstream () =
  let cache = Core.Pass.cache_create () in
  let fa = Flow.Full_adder.netlist () in
  let spec = Flow.Pipeline.spec_of_netlist ~scheme:`S2 ~lib fa in
  let r1, _ = Flow.Pipeline.run ~cache spec in
  checkb "first run ok" true (Result.is_ok r1);
  (* identical spec: every digested pass is a cache hit *)
  let _, rep2 = Flow.Pipeline.run ~cache spec in
  checkb "identical rerun fully cached" true
    (List.for_all (fun p -> p.Core.Pass.cached) rep2.Core.Pass.passes);
  (* changed placement parameter: validate cached, the rest re-run *)
  let spec' = { spec with Flow.Pipeline.scheme = `S1 } in
  let r3, rep3 = Flow.Pipeline.run ~cache spec' in
  checkb "edited run ok" true (Result.is_ok r3);
  let cached_of name =
    (List.find
       (fun p -> p.Core.Pass.pass_name = name)
       rep3.Core.Pass.passes)
      .Core.Pass.cached
  in
  checkb "validate cached" true (cached_of "validate");
  checkb "place re-run" false (cached_of "place");
  checkb "layout re-run" false (cached_of "layout");
  checkb "export re-run" false (cached_of "export")

(* The flow's pass-cache keys, pinned as the pipeline computed them
   before the netlist digest travelled lazily with the stages. *)
let flow_cache_keys_pinned () =
  let cache = Core.Pass.cache_create () in
  ignore
    (Flow.Pipeline.run ~cache
       (Flow.Pipeline.spec_of_netlist ~scheme:`S1 ~lib
          (Flow.Full_adder.netlist ())));
  Alcotest.(check (list (pair string string)))
    "netlist source keys"
    [
      ("export", "f1b6abb792fe6f32ded2ac30f4a07d8d");
      ("layout", "689d5f866f9f004bda7d91fcb3945eac");
      ("place", "689d5f866f9f004bda7d91fcb3945eac");
      ("validate", "a4a251d8b60b1414e6ab9886db1d4e3b");
    ]
    (List.sort compare (Core.Pass.cache_entries cache))

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
    Alcotest.test_case "pipeline executes" `Quick pipeline_executes;
    Alcotest.test_case "pipeline stops on error" `Quick pipeline_stops_on_error;
    Alcotest.test_case "pipeline cache hits" `Quick pipeline_cache_hits;
    Alcotest.test_case "digest once per step" `Quick digest_once_per_step;
    Alcotest.test_case "trace events" `Quick trace_events;
    Alcotest.test_case "trace cache-hit counters" `Quick
      trace_cache_hit_counters;
    Alcotest.test_case "report rendering" `Quick report_rendering;
    Alcotest.test_case "flow runs" `Slow flow_runs;
    Alcotest.test_case "flow cache skips upstream" `Slow
      flow_cache_skips_upstream;
    Alcotest.test_case "flow cache keys pinned" `Quick flow_cache_keys_pinned;
    Alcotest.test_case "flow reports diagnostics" `Quick
      flow_reports_diagnostics;
  ]
