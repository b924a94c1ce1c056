(* Telemetry layer tests: deterministic span structure across domain
   counts, workload-exact counters, histogram invariants (QCheck),
   registry-merge associativity (QCheck), exporter well-formedness, and
   the pass-manager bridge. *)

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let rules = Pdk.Rules.default

(* Every test records into the process-global registry, so each one runs
   inside a reset/enable ... disable/reset bracket to stay independent of
   test order (and of instrumented code under test elsewhere). *)
let recording f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

let campaign ~domains ~trials () =
  let cell =
    Layout.Cell.make_exn ~rules ~fn:(Logic.Cell_fun.nand 2)
      ~style:Layout.Cell.Immune_new ~scheme:Layout.Cell.Scheme1 ~drive:4
  in
  Fault.Injector.run ~domains
    { Fault.Injector.default_config with Fault.Injector.trials }
    cell

(* --- span structure --- *)

let shape_testable =
  Alcotest.(list (triple (option string) string int))

let span_shape_domain_independent () =
  let shape_at domains =
    recording (fun () ->
        ignore (campaign ~domains ~trials:200 ());
        Telemetry.span_shape (Telemetry.collect ()))
  in
  let s1 = shape_at 1 and s4 = shape_at 4 in
  Alcotest.check shape_testable "same span tree at 1 and 4 domains" s1 s4;
  (* and the tree is what the injector promises: one campaign root plus
     its chunk children *)
  checkb "has campaign root" true
    (List.exists (fun (p, n, c) -> p = None && n = "fault.campaign" && c = 1) s1);
  checkb "chunks parented to campaign" true
    (List.exists
       (fun (p, n, c) -> p = Some "fault.campaign" && n = "fault.chunk" && c > 1)
       s1)

let counters_match_workload () =
  recording (fun () ->
      ignore (campaign ~domains:3 ~trials:123 ());
      let snap = Telemetry.collect () in
      let counter name =
        Option.value (List.assoc_opt name snap.Telemetry.counters) ~default:0
      in
      check_int "trials counter" 123 (counter "fault.trials");
      check_int "crossings = 2 regions * 3 tracks * trials" (2 * 3 * 123)
        (counter "fault.crossings_tested");
      check_int "immune + failed = trials" 123
        (counter "fault.immune_new.immune" + counter "fault.immune_new.failed"))

let disabled_records_nothing () =
  Telemetry.reset ();
  Telemetry.disable ();
  ignore (campaign ~domains:2 ~trials:50 ());
  Telemetry.with_span "ghost" (fun () -> ());
  Telemetry.counter_add "ghost.counter" 1;
  let snap = Telemetry.collect () in
  check_int "no spans" 0 (List.length snap.Telemetry.spans);
  check_int "no counters" 0 (List.length snap.Telemetry.counters);
  Telemetry.reset ()

let nesting_parents () =
  recording (fun () ->
      Telemetry.with_span "outer" (fun () ->
          Telemetry.with_span "inner" (fun () -> ()));
      let shape = Telemetry.span_shape (Telemetry.collect ()) in
      Alcotest.check shape_testable "stack parenting"
        [ (None, "outer", 1); (Some "outer", "inner", 1) ]
        (List.sort compare shape))

(* --- flow pass bridge --- *)

let lib = Stdcell.Library.cnfet_exn ~drives:[ 2; 4; 7; 9 ] ()

let pipeline_bridge () =
  recording (fun () ->
      let spec = Flow.Pipeline.spec_of_netlist ~lib (Flow.Full_adder.netlist ()) in
      let r, _ = Flow.Pipeline.run spec in
      (match r with
      | Error d -> Alcotest.fail (Core.Diag.to_string d)
      | Ok _ -> ());
      let snap = Telemetry.collect () in
      let shape = Telemetry.span_shape snap in
      List.iter
        (fun pass ->
          checkb (pass ^ " span under flow") true
            (List.mem (Some "flow", pass, 1) shape))
        Flow.Pipeline.pass_names)

(* --- exporters --- *)

let exporters_well_formed () =
  recording (fun () ->
      ignore (campaign ~domains:2 ~trials:64 ());
      Telemetry.histogram_observe "h" ~buckets:[| 1.; 2. |] 1.5;
      let snap = Telemetry.collect () in
      let text = Telemetry.summary_to_text snap in
      checkb "text has counters" true (contains "fault.trials" text);
      let json = Telemetry.summary_to_json snap in
      checkb "json has counters" true (contains "\"fault.trials\":64" json);
      let trace = Telemetry.chrome_trace snap in
      checkb "trace has traceEvents" true (contains "\"traceEvents\"" trace);
      checkb "trace has complete events" true (contains "\"ph\":\"X\"" trace);
      (* braces/brackets balance — cheap well-formedness proxy *)
      let balance open_c close_c s =
        String.fold_left
          (fun acc c ->
            if c = open_c then acc + 1 else if c = close_c then acc - 1 else acc)
          0 s
      in
      check_int "braces balance" 0 (balance '{' '}' trace);
      check_int "brackets balance" 0 (balance '[' ']' trace))

(* --- quantiles --- *)

let check_float = Alcotest.(check (float 1e-9))

(* a known distribution: 10 observations in each of (0,10], (10,20],
   (20,30] — the interpolated quantiles are exact *)
let known_hist () =
  let h = Telemetry.Hist.create ~buckets:[| 10.; 20.; 30. |] in
  let obs =
    List.concat_map
      (fun base -> List.init 10 (fun i -> base +. float_of_int i +. 0.5))
      [ 0.; 10.; 20. ]
  in
  List.fold_left Telemetry.Hist.observe h obs

let quantile_known_distribution () =
  let h = known_hist () in
  let q p = Option.get (Telemetry.quantile_of_hist h p) in
  check_float "p50 interpolates mid-bucket" 15. (q 0.5);
  check_float "p90 interpolates" 27. (q 0.9);
  check_float "q=1 is the max bound" 30. (q 1.);
  check_float "q=0 is the lower edge" 0. (q 0.);
  check_float "p25 lands at the first bound" 7.5 (q 0.25)

let quantile_edge_cases () =
  let h = known_hist () in
  checkb "q out of range" true (Telemetry.quantile_of_hist h 1.5 = None);
  checkb "negative q" true (Telemetry.quantile_of_hist h (-0.1) = None);
  let empty = Telemetry.Hist.create ~buckets:[| 1.; 2. |] in
  checkb "empty histogram" true (Telemetry.quantile_of_hist empty 0.5 = None);
  (* everything in the overflow bucket clamps to the last finite bound *)
  let over =
    List.fold_left Telemetry.Hist.observe
      (Telemetry.Hist.create ~buckets:[| 1.; 2. |])
      [ 5.; 6.; 7. ]
  in
  check_float "overflow clamps to last bound" 2.
    (Option.get (Telemetry.quantile_of_hist over 0.99))

let quantile_of_snapshot () =
  recording (fun () ->
      List.iter
        (Telemetry.histogram_observe "q.wait" ~buckets:[| 10.; 20.; 30. |])
        (List.concat_map
           (fun base -> List.init 10 (fun i -> base +. float_of_int i +. 0.5))
           [ 0.; 10.; 20. ]);
      let snap = Telemetry.collect () in
      check_float "snapshot quantile" 15.
        (Option.get (Telemetry.quantile snap "q.wait" 0.5));
      checkb "unknown name" true (Telemetry.quantile snap "nope" 0.5 = None))

(* --- Prometheus exposition --- *)

let check_str = Alcotest.(check string)

let prometheus_sanitize () =
  let s = Telemetry.Prometheus.sanitize_name in
  check_str "dots become underscores" "service_queue_wait_ms"
    (s "service.queue_wait_ms");
  check_str "leading digit prefixed" "_9lives" (s "9lives");
  check_str "empty becomes underscore" "_" (s "");
  check_str "punctuation collapses" "a_b_c" (s "a-b/c");
  check_str "colons survive" "a:b" (s "a:b")

let prometheus_escaping () =
  let e = Telemetry.Prometheus.escape_label in
  check_str "backslash" {|a\\b|} (e {|a\b|});
  check_str "double quote" {|a\"b|} (e {|a"b|});
  check_str "newline" {|a\nb|} (e "a\nb");
  check_str "help keeps quotes" {|say "hi"\nbye|}
    (Telemetry.Prometheus.escape_help "say \"hi\"\nbye")

let empty_snapshot =
  { Telemetry.spans = []; counters = []; gauges = []; hists = [] }

let prometheus_empty_registry () =
  check_str "empty registry is an empty scrape" ""
    (Telemetry.Prometheus.render empty_snapshot)

(* hand-built snapshot with one counter, one gauge, one histogram whose
   last observation lands in the overflow bucket — the whole document is
   pinned byte for byte *)
let prometheus_golden_render () =
  let h =
    List.fold_left Telemetry.Hist.observe
      (Telemetry.Hist.create ~buckets:[| 1.; 5. |])
      [ 0.5; 3.; 7. ]
  in
  let snap =
    {
      Telemetry.spans = [];
      counters = [ ("jobs.done", 3) ];
      gauges = [ ("queue.depth", 2.) ];
      hists = [ ("wait.ms", h) ];
    }
  in
  check_str "golden exposition"
    "# HELP jobs_done_total jobs.done\n\
     # TYPE jobs_done_total counter\n\
     jobs_done_total 3\n\
     # HELP queue_depth queue.depth\n\
     # TYPE queue_depth gauge\n\
     queue_depth 2\n\
     # HELP wait_ms wait.ms\n\
     # TYPE wait_ms histogram\n\
     wait_ms_bucket{le=\"1\"} 1\n\
     wait_ms_bucket{le=\"5\"} 2\n\
     wait_ms_bucket{le=\"+Inf\"} 3\n\
     wait_ms_sum 10.5\n\
     wait_ms_count 3\n"
    (Telemetry.Prometheus.render snap)

let prometheus_parse_roundtrip () =
  let h =
    List.fold_left Telemetry.Hist.observe
      (Telemetry.Hist.create ~buckets:[| 1.; 5. |])
      [ 0.5; 3.; 7. ]
  in
  let tricky = "a\\b\"c\nd" in
  let snap =
    {
      Telemetry.spans = [];
      counters = [ ("jobs.done", 3) ];
      gauges = [];
      hists = [ ("wait.ms", h) ];
    }
  in
  let body =
    Telemetry.Prometheus.render ~labels:[ ("instance", tricky) ] snap
  in
  let samples = Telemetry.Prometheus.parse body in
  let find metric =
    List.find_opt
      (fun s -> s.Telemetry.Prometheus.metric = metric)
      samples
  in
  (match find "jobs_done_total" with
  | None -> Alcotest.fail "counter sample missing"
  | Some s ->
    check_float "counter value survives" 3. s.Telemetry.Prometheus.value;
    check_str "label value unescapes" tricky
      (Option.get
         (List.assoc_opt "instance" s.Telemetry.Prometheus.labels)));
  (* cumulative buckets: one sample per bound, non-decreasing, +Inf = count *)
  let buckets =
    List.filter
      (fun s -> s.Telemetry.Prometheus.metric = "wait_ms_bucket")
      samples
  in
  check_int "bucket series has every bound" 3 (List.length buckets);
  let values = List.map (fun s -> s.Telemetry.Prometheus.value) buckets in
  checkb "buckets are cumulative" true
    (values = List.sort compare values);
  let inf =
    List.find
      (fun s ->
        List.assoc_opt "le" s.Telemetry.Prometheus.labels = Some "+Inf")
      buckets
  in
  check_float "+Inf bucket equals count" 3. inf.Telemetry.Prometheus.value

(* end-to-end: a deterministic campaign's merged registry scrapes to the
   exact counter samples the workload implies, at any domain count *)
let prometheus_campaign_scrape () =
  let scrape domains =
    recording (fun () ->
        ignore (campaign ~domains ~trials:64 ());
        Telemetry.Prometheus.render (Telemetry.collect ()))
  in
  let body = scrape 1 in
  checkb "trials counter sample" true
    (contains "fault_trials_total 64" body);
  checkb "crossings counter sample" true
    (contains "fault_crossings_tested_total 384" body);
  checkb "HELP keeps the registry name" true
    (contains "# HELP fault_trials_total fault.trials" body);
  checkb "TYPE line present" true
    (contains "# TYPE fault_trials_total counter" body);
  (* the counter samples are workload-exact, so they agree across domain
     counts (gauges carry per-shard timings and legitimately differ) *)
  let counter_lines b =
    List.filter
      (fun l -> String.length l > 0 && l.[0] <> '#' && contains "_total" l)
      (String.split_on_char '\n' b)
  in
  Alcotest.(check (list string))
    "counter samples domain-independent" (counter_lines body)
    (counter_lines (scrape 3))

(* --- structured event log --- *)

let with_event_ring cap f =
  Telemetry.Events.set_capacity cap;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Events.set_sink None;
      Telemetry.Events.set_capacity 1024)
    f

let events_ring_wraps () =
  with_event_ring 4 (fun () ->
      for i = 0 to 5 do
        Telemetry.Events.emit "tick" ~attrs:[ ("i", Telemetry.Int i) ]
      done;
      let recent = Telemetry.Events.recent () in
      check_int "ring keeps capacity" 4 (List.length recent);
      check_int "two overwritten" 2 (Telemetry.Events.dropped ());
      let seqs = List.map (fun e -> e.Telemetry.Events.seq) recent in
      Alcotest.(check (list int)) "oldest first, newest kept" [ 2; 3; 4; 5 ] seqs;
      let limited = Telemetry.Events.recent ~limit:2 () in
      Alcotest.(check (list int))
        "limit keeps the newest" [ 4; 5 ]
        (List.map (fun e -> e.Telemetry.Events.seq) limited);
      Telemetry.Events.clear ();
      check_int "clear empties" 0 (List.length (Telemetry.Events.recent ()));
      check_int "clear zeroes dropped" 0 (Telemetry.Events.dropped ()))

let events_sink_and_json () =
  with_event_ring 16 (fun () ->
      let lines = ref [] in
      Telemetry.Events.set_sink (Some (fun l -> lines := l :: !lines));
      Telemetry.Events.emit ~trace_id:"tr-1" "job.submitted"
        ~attrs:[ ("id", Telemetry.Int 7); ("cached", Telemetry.Bool false) ];
      Telemetry.Events.emit "conn.open";
      check_int "sink saw every event" 2 (List.length !lines);
      let first = List.nth (List.rev !lines) 0 in
      checkb "sink line carries the trace id" true
        (contains "\"trace_id\":\"tr-1\"" first);
      checkb "sink line carries attrs" true (contains "\"id\":7" first);
      checkb "sink line carries the kind" true
        (contains "\"kind\":\"job.submitted\"" first);
      (* a raising sink must never take down the emitter *)
      Telemetry.Events.set_sink (Some (fun _ -> failwith "boom"));
      Telemetry.Events.emit "survives";
      checkb "emit survives a raising sink" true
        (List.exists
           (fun e -> e.Telemetry.Events.kind = "survives")
           (Telemetry.Events.recent ())))

(* --- QCheck properties --- *)

let float_list =
  QCheck.(list_of_size Gen.(int_range 0 200) (map (fun i -> float_of_int i /. 7.) small_int))

let hist_of obs =
  List.fold_left Telemetry.Hist.observe
    (Telemetry.Hist.create ~buckets:[| 1.; 5.; 25. |])
    obs

let hist_counts_sum =
  QCheck.Test.make ~count:200 ~name:"histogram bucket counts sum to count"
    float_list (fun obs ->
      let h = hist_of obs in
      Array.fold_left ( + ) 0 h.Telemetry.Hist.counts = List.length obs
      && h.Telemetry.Hist.count = List.length obs)

let hist_registry_sum =
  QCheck.Test.make ~count:50
    ~name:"registry histogram counts sum to observation count" float_list
    (fun obs ->
      Telemetry.reset ();
      Telemetry.enable ();
      Fun.protect
        ~finally:(fun () ->
          Telemetry.disable ();
          Telemetry.reset ())
        (fun () ->
          List.iter
            (Telemetry.histogram_observe "q.hist" ~buckets:[| 1.; 5.; 25. |])
            obs;
          let snap = Telemetry.collect () in
          match List.assoc_opt "q.hist" snap.Telemetry.hists with
          | None -> obs = []
          | Some h ->
            Array.fold_left ( + ) 0 h.Telemetry.Hist.counts = List.length obs))

let hist_merge_associative =
  QCheck.Test.make ~count:200 ~name:"histogram merge is associative"
    QCheck.(triple float_list float_list float_list)
    (fun (a, b, c) ->
      let open Telemetry.Hist in
      let ha = hist_of a and hb = hist_of b and hc = hist_of c in
      let l = merge (merge ha hb) hc and r = merge ha (merge hb hc) in
      l.buckets = r.buckets && l.counts = r.counts && l.count = r.count
      && Float.abs (l.sum -. r.sum) <= 1e-6 *. (1. +. Float.abs l.sum))

let counters_gen =
  QCheck.(
    list_of_size
      Gen.(int_range 0 20)
      (pair (oneofl [ "a"; "b"; "c"; "d.e"; "f" ]) small_signed_int))

let counter_merge_associative =
  QCheck.Test.make ~count:500 ~name:"counter merge is associative"
    QCheck.(triple counters_gen counters_gen counters_gen)
    (fun (a, b, c) ->
      Telemetry.merge_counters (Telemetry.merge_counters a b) c
      = Telemetry.merge_counters a (Telemetry.merge_counters b c))

let counter_merge_commutative =
  QCheck.Test.make ~count:500 ~name:"counter merge is commutative"
    QCheck.(pair counters_gen counters_gen)
    (fun (a, b) ->
      Telemetry.merge_counters a b = Telemetry.merge_counters b a)

(* --- every exporter prints JSON that parses back --- *)

module Json = Core.Json

(* UTF-8 strings made of what JSON must escape or pass through intact:
   quotes, backslashes, control characters and multi-byte sequences *)
let tricky =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 6)
         (oneofl
            [ "a"; "\""; "\\"; "\n"; "\t"; "\x01"; "\x1f"; "\x7f"; "\xc3\xa9";
              "\xe2\x82\xac"; "\xf0\x9f\x98\x80" ])))

let finite =
  QCheck.Gen.map
    (fun f -> if Float.is_finite f then f else 0.5)
    QCheck.Gen.float

let attr_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Telemetry.Int i) small_signed_int;
        map (fun f -> Telemetry.Float f) finite;
        map (fun s -> Telemetry.String s) tricky;
        map (fun b -> Telemetry.Bool b) bool;
      ])

let same_value v j =
  match (v, j) with
  | Telemetry.Int i, j -> Json.to_int j = Some i
  | Telemetry.Float f, Json.Num g -> Float.equal f g
  | Telemetry.String s, j -> Json.to_str j = Some s
  | Telemetry.Bool b, j -> Json.to_bool j = Some b
  | _ -> false

type exports = {
  snap : Telemetry.snapshot;
  event : Telemetry.Events.event;
  report : Core.Pass.report;
  diag : Core.Diag.t;
}

let exports_gen =
  let open QCheck.Gen in
  let list g = list_size (int_range 0 4) g in
  let attrs = list (pair tricky attr_value) in
  let span =
    let+ name = tricky
    and+ parent = opt tricky
    and+ start = int_range 0 1_000_000
    and+ dur = int_range 0 1_000_000
    and+ attrs
    and+ instant = bool in
    {
      Telemetry.name;
      parent;
      start_ns = Int64.of_int start;
      dur_ns = Int64.of_int dur;
      attrs;
      shard = 0;
      instant;
    }
  in
  let hist =
    map
      (List.fold_left Telemetry.Hist.observe
         (Telemetry.Hist.create ~buckets:[| 0.5; 2.5 |]))
      (list finite)
  in
  let pass =
    let+ pass_name = tricky
    and+ wall_s = finite
    and+ counters = list (pair tricky small_nat) in
    { Core.Pass.pass_name; wall_s; counters }
  in
  let+ spans = list span
  and+ counters = list (pair tricky small_nat)
  and+ gauges = list (pair tricky finite)
  and+ hists = list (pair tricky hist)
  and+ kind = tricky
  and+ trace_id = opt tricky
  and+ event_attrs = attrs
  and+ ts_ms = finite
  and+ passes = list pass
  and+ total_s = finite
  and+ severity = oneofl Core.Diag.[ Error; Warning; Info ]
  and+ stage = tricky
  and+ message = tricky
  and+ context = list (pair tricky tricky) in
  {
    snap = { Telemetry.spans; counters; gauges; hists };
    event =
      {
        Telemetry.Events.seq = 0;
        ts_ms;
        kind;
        trace_id;
        (* an attr named like an envelope key must not duplicate it *)
        attrs = event_attrs @ [ ("kind", Telemetry.Bool true) ];
      };
    report = { Core.Pass.passes; total_s };
    diag = Core.Diag.make ~severity ~context ~stage message;
  }

let exporters_parse_back =
  QCheck.Test.make ~name:"every exporter prints JSON that parses back"
    ~count:300 (QCheck.make exports_gen) (fun x ->
      let parse what s =
        match Json.of_string s with
        | Ok v -> v
        | Error e -> QCheck.Test.fail_reportf "%s: %s in %S" what e s
      in
      let get k j = Option.get (Json.member k j) in
      let arr j = Option.get (Json.to_list j) in
      let keys = function Json.Obj kvs -> List.map fst kvs | _ -> [] in
      let same_names kvs j = keys j = List.map fst kvs in
      let summary = parse "summary" (Telemetry.summary_to_json x.snap) in
      let span_names =
        List.filter_map
          (fun sp ->
            if sp.Telemetry.instant then None else Some sp.Telemetry.name)
          x.snap.Telemetry.spans
        |> List.sort_uniq String.compare
      in
      let trace =
        arr (get "traceEvents" (parse "trace" (Telemetry.chrome_trace x.snap)))
      in
      let event = parse "event" (Telemetry.Events.to_json x.event) in
      let event_keys =
        [ "seq"; "ts_ms"; "kind" ]
        @ Option.fold ~none:[] ~some:(fun _ -> [ "trace_id" ])
            x.event.Telemetry.Events.trace_id
        @ List.map
            (fun (k, _) -> if k = "kind" then "attr_kind" else k)
            x.event.Telemetry.Events.attrs
      in
      let report = parse "report" (Core.Pass.report_to_json x.report) in
      let diag = parse "diag" (Json.to_string (Core.Diag.to_json x.diag)) in
      let of_json = Core.Diag.of_json ~stage:"" ~message:"" in
      List.map (fun s -> Json.to_str (get "name" s)) (arr (get "spans" summary))
      = List.map Option.some span_names
      && same_names x.snap.Telemetry.counters (get "counters" summary)
      && List.for_all2
           (fun (_, v) (_, j) -> Json.to_float j = Some v)
           x.snap.Telemetry.gauges
           (match get "gauges" summary with Json.Obj kvs -> kvs | _ -> [])
      && same_names x.snap.Telemetry.hists (get "histograms" summary)
      && List.for_all2
           (fun sp e ->
             let args = get "args" e in
             let attrs =
               match sp.Telemetry.parent with
               | Some p -> ("parent", Telemetry.String p) :: sp.Telemetry.attrs
               | None -> sp.Telemetry.attrs
             in
             Json.to_str (get "name" e) = Some sp.Telemetry.name
             && same_names attrs args
             && List.for_all2
                  (fun (_, v) (_, j) -> same_value v j)
                  attrs
                  (match args with Json.Obj kvs -> kvs | _ -> []))
           x.snap.Telemetry.spans trace
      && keys event = event_keys
      && Json.to_str (get "kind" event) = Some x.event.Telemetry.Events.kind
      && Option.bind (Json.member "trace_id" event) Json.to_str
         = x.event.Telemetry.Events.trace_id
      && get "attr_kind" event = Json.Bool true
      && List.for_all2
           (fun (p : Core.Pass.pass_report) j ->
             Json.to_str (get "name" j) = Some p.Core.Pass.pass_name
             && Json.to_float (get "wall_s" j) = Some p.Core.Pass.wall_s
             && same_names p.Core.Pass.counters (get "counters" j))
           x.report.Core.Pass.passes
           (arr (get "passes" report))
      && of_json diag = x.diag
      && of_json (Core.Diag.to_json x.diag) = x.diag)

let suite =
  [
    Alcotest.test_case "span shape domain-independent" `Quick
      span_shape_domain_independent;
    Alcotest.test_case "counters match workload" `Quick counters_match_workload;
    Alcotest.test_case "disabled records nothing" `Quick
      disabled_records_nothing;
    Alcotest.test_case "span nesting parents" `Quick nesting_parents;
    Alcotest.test_case "pipeline bridge" `Quick pipeline_bridge;
    Alcotest.test_case "exporters well-formed" `Quick exporters_well_formed;
    Alcotest.test_case "quantile known distribution" `Quick
      quantile_known_distribution;
    Alcotest.test_case "quantile edge cases" `Quick quantile_edge_cases;
    Alcotest.test_case "quantile of snapshot" `Quick quantile_of_snapshot;
    Alcotest.test_case "prometheus name sanitization" `Quick
      prometheus_sanitize;
    Alcotest.test_case "prometheus escaping" `Quick prometheus_escaping;
    Alcotest.test_case "prometheus empty registry" `Quick
      prometheus_empty_registry;
    Alcotest.test_case "prometheus golden render" `Quick
      prometheus_golden_render;
    Alcotest.test_case "prometheus parse roundtrip" `Quick
      prometheus_parse_roundtrip;
    Alcotest.test_case "prometheus campaign scrape" `Quick
      prometheus_campaign_scrape;
    Alcotest.test_case "event ring wraps" `Quick events_ring_wraps;
    Alcotest.test_case "event sink and json" `Quick events_sink_and_json;
    QCheck_alcotest.to_alcotest hist_counts_sum;
    QCheck_alcotest.to_alcotest hist_registry_sum;
    QCheck_alcotest.to_alcotest hist_merge_associative;
    QCheck_alcotest.to_alcotest counter_merge_associative;
    QCheck_alcotest.to_alcotest counter_merge_commutative;
    QCheck_alcotest.to_alcotest exporters_parse_back;
  ]
