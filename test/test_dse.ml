(* DSE subsystem tests: Pareto-front laws as QCheck properties, the
   adaptive-equals-exhaustive acceptance on a small immune-style space,
   bit-identical outcomes and first errors across domain counts (with the
   per-round characterization prefetch), the dse document digest golden,
   the Wilson interval, the characterize variation-sampler golden (the
   no-sampler path must stay byte-identical), and the dse job codec. *)

module K = Dse.Knobs
module E = Dse.Engine

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pareto laws *)

(* random small sets of 3-objective points, with deliberate duplicates
   and axis ties so the <=/< boundary is exercised *)
let objectives_gen =
  QCheck.Gen.(
    let coord = map (fun n -> float_of_int n /. 4.) (int_range 0 8) in
    let point = array_repeat 3 coord in
    list_size (int_range 1 24) point)

let arb_objectives =
  QCheck.make
    ~print:(fun pts ->
      String.concat ";"
        (List.map
           (fun p ->
             Printf.sprintf "[%s]"
               (String.concat ","
                  (Array.to_list (Array.map string_of_float p))))
           pts))
    objectives_gen

let front_mutually_nondominated =
  QCheck.Test.make ~name:"front is mutually non-dominated" ~count:200
    arb_objectives (fun pts ->
      let front, _ = Dse.Pareto.front ~objectives:(fun p -> p) pts in
      List.for_all
        (fun a ->
          List.for_all (fun b -> not (Dse.Pareto.dominates a b)) front)
        front)

let pruned_dominated_by_front =
  QCheck.Test.make ~name:"every dominated point has a dominator on the front"
    ~count:200 arb_objectives (fun pts ->
      let front, dominated = Dse.Pareto.front ~objectives:(fun p -> p) pts in
      List.for_all
        (fun d -> List.exists (fun f -> Dse.Pareto.dominates f d) front)
        dominated)

let front_partition =
  QCheck.Test.make ~name:"front + dominated partition the input" ~count:200
    arb_objectives (fun pts ->
      let front, dominated = Dse.Pareto.front ~objectives:(fun p -> p) pts in
      List.length front + List.length dominated = List.length pts)

let dominates_cases () =
  let d = Dse.Pareto.dominates in
  checkb "strict on every axis" true (d [| 0.; 0. |] [| 1.; 1. |]);
  checkb "tie on one axis still dominates" true (d [| 0.; 1. |] [| 1.; 1. |]);
  checkb "equal vectors do not dominate" false (d [| 1.; 1. |] [| 1.; 1. |]);
  checkb "trade-off does not dominate" false (d [| 0.; 2. |] [| 1.; 1. |]);
  checkb "nan is incomparable" false (d [| Float.nan; 0. |] [| 1.; 1. |])

(* ------------------------------------------------------------------ *)
(* Knobs: nested level sets and ordinal addressing *)

let level_sets_nested () =
  List.iter
    (fun n ->
      (* the level-l set contains the level-(l+1) set: every coarse
         point survives into the finer sweep, so no evaluation is lost *)
      for l = 0 to 4 do
        let fine = K.level_indices n l in
        let coarse = K.level_indices n (l + 1) in
        checkb
          (Printf.sprintf "level %d set nested in level %d for n=%d" (l + 1)
             l n)
          true
          (List.for_all (fun i -> List.mem i fine) coarse)
      done;
      Alcotest.(check (list int))
        (Printf.sprintf "level 0 is the full axis for n=%d" n)
        (List.init n Fun.id) (K.level_indices n 0))
    [ 1; 2; 3; 4; 5; 7; 8 ]

let ordinal_roundtrip () =
  let space = K.canonical K.default_space in
  let n = K.card space in
  for o = 0 to n - 1 do
    check_int "ordinal roundtrip" o (K.ordinal space (K.index_of_ordinal space o))
  done

(* ------------------------------------------------------------------ *)
(* Engine: acceptance properties *)

(* a small immune-style space: yield is the deterministic closed-form
   metallic survival there, so adaptive-vs-exhaustive front equality is
   exact (DESIGN.md §5i documents the vulnerable-style caveat) *)
let small_config =
  {
    (E.default ~cell:"NAND2") with
    E.style = Layout.Cell.Immune_new;
    E.space =
      {
        K.pitches_nm = [| 4.; 6.; 8. |];
        K.p_metallic = [| 0.01; 0.1; 0.33 |];
        K.removal_eff = [| 0.999 |];
        K.drives = [| 1 |];
        K.schemes = [| Layout.Cell.Scheme1; Layout.Cell.Scheme2 |];
      };
    E.max_trials = 120;
    E.min_trials = 24;
    E.batch = 24;
  }

let front_key (o : E.outcome) =
  List.sort compare
    (List.map (fun e -> (e.E.ordinal, E.objectives e)) o.E.front)

let adaptive_equals_exhaustive () =
  let run adaptive =
    Core.Diag.ok_exn (E.run { small_config with E.adaptive })
  in
  let a = run true and x = run false in
  check_int "exhaustive covers the grid" (K.card small_config.E.space)
    (List.length x.E.evaluated);
  checkb "fronts equal" true (front_key a = front_key x);
  checkb "adaptive evaluated no more than exhaustive" true
    (List.length a.E.evaluated <= List.length x.E.evaluated);
  checkb "front non-empty" true (a.E.front <> [])

(* The §5i vulnerable-style near-tie caveat, pinned.  On this space and
   seed the misposition MC produces a near-tied yield, and with no noise
   margin the greedy cross-refinement stops one cell short of a true
   front point — the adaptive front diverges from the exhaustive one.
   The default margin band (walk seeds + certainty prune) restores
   equality; the margin = 0 assertion keeps the reproduction alive. *)
let vulnerable_margin_config =
  {
    (E.default ~cell:"NAND2") with
    E.style = Layout.Cell.Vulnerable;
    E.space =
      {
        K.pitches_nm = [| 4.; 5.; 6. |];
        K.p_metallic = [| 0.05; 0.15; 0.33 |];
        K.removal_eff = [| 0.9; 0.99 |];
        K.drives = [| 1 |];
        K.schemes = [| Layout.Cell.Scheme1 |];
      };
    E.max_trials = 120;
    E.min_trials = 24;
    E.batch = 24;
    E.seed = 6;
  }

let vulnerable_margin_restores_equality () =
  let run adaptive margin =
    Core.Diag.ok_exn (E.run { vulnerable_margin_config with E.adaptive; margin })
  in
  let x = run false 0.04 in
  let without_margin = run true 0. in
  let with_margin = run true 0.04 in
  checkb "margin 0 reproduces the near-tie divergence" true
    (front_key without_margin <> front_key x);
  checkb "default margin makes adaptive equal exhaustive" true
    (front_key with_margin = front_key x);
  checkb "margin walk still evaluates less than exhaustive" true
    (List.length with_margin.E.evaluated < List.length x.E.evaluated)

let margin_validation () =
  let reject what cfg =
    match E.validate cfg with
    | Ok () -> Alcotest.failf "%s should be rejected" what
    | Error _ -> ()
  in
  reject "negative margin" { small_config with E.margin = -0.01 };
  reject "nan margin" { small_config with E.margin = Float.nan };
  checkb "zero margin is legal" true
    (Result.is_ok (E.validate { small_config with E.margin = 0. }))

let domain_invariance () =
  let run domains =
    Core.Diag.ok_exn (E.run ~domains small_config)
  in
  let a = run 1 and b = run 3 in
  checkb "evaluations bit-identical across domains" true
    (a.E.evaluated = b.E.evaluated);
  checkb "fronts bit-identical across domains" true (a.E.front = b.E.front);
  check_int "trials identical" a.E.trials_total b.E.trials_total

(* A vulnerable-style space over 2 pitches x 2 drives: its first round
   covers the whole grid, so the engine characterizes 4 (pitch, drive)
   keys together on the pool before scoring any point. *)
let prefetch_config =
  {
    (E.default ~cell:"NAND2") with
    E.style = Layout.Cell.Vulnerable;
    E.space =
      {
        K.pitches_nm = [| 4.; 6. |];
        K.p_metallic = [| 0.05; 0.33 |];
        K.removal_eff = [| 0.99 |];
        K.drives = [| 1; 2 |];
        K.schemes = [| Layout.Cell.Scheme1 |];
      };
    E.max_trials = 120;
    E.min_trials = 24;
    E.batch = 24;
  }

let prefetch_domain_invariance () =
  let run domains = Core.Diag.ok_exn (E.run ~domains prefetch_config) in
  let a = run 1 in
  check_int "first round covers the grid" 8 (List.length a.E.evaluated);
  List.iter
    (fun domains ->
      let b = run domains in
      let at what = Printf.sprintf "%s at %d domains" what domains in
      checkb (at "evaluations bit-identical") true
        (a.E.evaluated = b.E.evaluated);
      checkb (at "fronts bit-identical") true (a.E.front = b.E.front);
      check_int (at "trials identical") a.E.trials_total b.E.trials_total)
    [ 2; 4 ]

(* NOR2 has no drive-2 cell: the campaign fails on the first point at
   drive 2 in evaluation order, with the library's diagnostic, however
   many keys were characterized around it. *)
let prefetch_error_order () =
  List.iter
    (fun domains ->
      match E.run ~domains { prefetch_config with E.cell = "NOR2" } with
      | Ok _ -> Alcotest.failf "NOR2 at drive 2 accepted at %d domains" domains
      | Error d ->
        Alcotest.(check string)
          (Printf.sprintf "diagnostic at %d domains" domains)
          "library: error: no cell NOR2 at drive 2 in library cnfet65 \
           (library=cnfet65, cell=NOR2, drive=2, available_drives=1)"
          (Core.Diag.to_string d))
    [ 1; 4 ]

(* The served dse document of the small vulnerable campaign, pinned by
   digest: the device, transient, sampler and MC arithmetic all feed it. *)
let dse_document_golden () =
  let o = Core.Diag.ok_exn (E.run prefetch_config) in
  Alcotest.(check string)
    "dse_json digest" "e732da5355ca7021721718b94337ef46"
    (Digest.to_hex
       (Digest.string (Service.Json.to_string (Service.Runner.dse_json o))))

let wilson_interval () =
  let lo, hi = E.wilson ~z:1.96 ~n:100 ~successes:50 in
  checkb "wilson brackets the estimate" true (lo < 0.5 && 0.5 < hi);
  checkb "wilson within [0,1]" true (0. <= lo && hi <= 1.);
  let lo0, hi0 = E.wilson ~z:3. ~n:50 ~successes:0 in
  checkb "zero successes pin lo to 0" true (lo0 = 0. && hi0 > 0.);
  let lo1, hi1 = E.wilson ~z:3. ~n:50 ~successes:50 in
  checkb "all successes pin hi to 1" true (hi1 = 1. && lo1 < 1.);
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Dse.Engine.wilson: n = 0 must be positive") (fun () ->
      ignore (E.wilson ~z:3. ~n:0 ~successes:0))

(* ------------------------------------------------------------------ *)
(* Characterize: the injected-sampler seam (satellite of this PR) *)

let neutral_sampler_byte_identical () =
  let lib = Core.Diag.ok_exn (Stdcell.Library.cnfet ~drives:[ 1 ] ()) in
  let entry =
    Core.Diag.ok_exn (Stdcell.Library.find lib ~name:"NAND2" ~drive:1)
  in
  let bare = Stdcell.Characterize.all_arcs_exn ~lib entry ~load_inv1x:2 in
  let rules = Pdk.Rules.default in
  let tech = Device.Cnfet.default_tech in
  let width_lambda = entry.Stdcell.Library.width_lambda_base in
  let tubes = Stdcell.Library.tubes_for tech ~rules ~width_lambda in
  let width_nm = Pdk.Rules.nm_of_lambda rules width_lambda in
  let neutral =
    Stdcell.Characterize.all_arcs_exn
      ~variation:(Device.Variation.neutral_sampler ~tubes ~width_nm)
      ~lib entry ~load_inv1x:2
  in
  checkb "neutral sampler is byte-identical to no sampler" true
    (bare = neutral);
  let prepared =
    Device.Variation.prepare_sampler Device.Cnfet.default_tech
      { Device.Variation.default_spec with Device.Variation.samples = 64 }
      ~tubes ~width_nm
  in
  let derated =
    Stdcell.Characterize.all_arcs_exn ~variation:prepared ~lib entry
      ~load_inv1x:2
  in
  checkb "prepared sampler derates delays" true
    (List.for_all2
       (fun (a : Stdcell.Characterize.arc) (b : Stdcell.Characterize.arc) ->
         b.Stdcell.Characterize.rise_delay_s
         >= a.Stdcell.Characterize.rise_delay_s
         && b.Stdcell.Characterize.energy_per_cycle_j
            = a.Stdcell.Characterize.energy_per_cycle_j)
       bare derated)

(* ------------------------------------------------------------------ *)
(* Service job codec *)

let dse_job_roundtrip () =
  let j =
    Service.Job.dse ~style:Layout.Cell.Immune_new ~pitches:[ 5.; 4. ]
      ~p_metallic:[ 0.1 ] ~removal:[ 0.95; 0.999 ] ~drives:[ 2; 1 ]
      ~schemes:[ `S2 ] ~load:3 ~max_trials:80 ~seed:7 ~adaptive:false
      "NAND2"
  in
  (match Service.Job.validate j with
  | Ok () -> ()
  | Error d -> Alcotest.failf "valid dse job rejected: %s" (Core.Diag.to_string d));
  let j' =
    match Service.Job.of_json (Service.Job.to_json j) with
    | Ok j' -> j'
    | Error d -> Alcotest.failf "roundtrip failed: %s" (Core.Diag.to_string d)
  in
  Alcotest.(check string)
    "digest survives the json roundtrip" (Service.Job.digest j)
    (Service.Job.digest j');
  Alcotest.(check string) "kind" "dse" (Service.Job.kind j)

let dse_job_validation () =
  let reject what j =
    match Service.Job.validate j with
    | Ok () -> Alcotest.failf "%s should be rejected" what
    | Error _ -> ()
  in
  reject "unknown cell" (Service.Job.dse "NO_SUCH_CELL");
  reject "over-budget trials" (Service.Job.dse ~max_trials:30_000 "NAND2");
  reject "empty pitch axis" (Service.Job.dse ~pitches:[] "NAND2");
  match Service.Job.validate (Service.Job.dse "NAND2") with
  | Ok () -> ()
  | Error d -> Alcotest.failf "default dse job rejected: %s" (Core.Diag.to_string d)

let suite =
  [
    QCheck_alcotest.to_alcotest front_mutually_nondominated;
    QCheck_alcotest.to_alcotest pruned_dominated_by_front;
    QCheck_alcotest.to_alcotest front_partition;
    Alcotest.test_case "dominance boundary cases" `Quick dominates_cases;
    Alcotest.test_case "refinement level sets nested" `Quick level_sets_nested;
    Alcotest.test_case "ordinal addressing roundtrip" `Quick ordinal_roundtrip;
    Alcotest.test_case "adaptive front equals exhaustive" `Slow
      adaptive_equals_exhaustive;
    Alcotest.test_case "vulnerable near-tie needs the margin band" `Slow
      vulnerable_margin_restores_equality;
    Alcotest.test_case "margin validation" `Quick margin_validation;
    Alcotest.test_case "bit-identical across domains" `Slow domain_invariance;
    Alcotest.test_case "prefetched keys bit-identical across domains" `Slow
      prefetch_domain_invariance;
    Alcotest.test_case "prefetch keeps the first error" `Slow
      prefetch_error_order;
    Alcotest.test_case "dse document golden" `Slow dse_document_golden;
    Alcotest.test_case "wilson interval" `Quick wilson_interval;
    Alcotest.test_case "characterize sampler seam" `Quick
      neutral_sampler_byte_identical;
    Alcotest.test_case "dse job json roundtrip" `Quick dse_job_roundtrip;
    Alcotest.test_case "dse job validation" `Quick dse_job_validation;
  ]
