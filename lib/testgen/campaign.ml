type config = {
  fault : Fault.Injector.config;
  max_spares : int;
  p_good : float;
  max_extra_tubes : int;
}

let default_config =
  {
    fault = Fault.Injector.default_config;
    max_spares = 2;
    p_good = 0.9;
    max_extra_tubes = 4;
  }

let validate config =
  let ( let* ) = Result.bind in
  let* () = Fault.Injector.validate config.fault in
  let fail field value msg =
    Core.Diag.fail ~stage:"testgen.campaign" ~context:[ (field, value) ] msg
  in
  if config.max_spares < 0 then
    fail "max_spares" (string_of_int config.max_spares)
      "max_spares must be non-negative"
  else if not (config.p_good >= 0. && config.p_good <= 1.) then
    fail "p_good" (string_of_float config.p_good) "p_good must lie in [0, 1]"
  else if config.max_extra_tubes < 0 then
    fail "max_extra_tubes"
      (string_of_int config.max_extra_tubes)
      "max_extra_tubes must be non-negative"
  else Ok ()

type result = {
  cell : string;
  style : Layout.Cell.style;
  scheme : Layout.Cell.scheme;
  dictionary : Dictionary.t;
  vectors : Vectors.t;
  spare_curve : Repair.spare_point list;
  redundancy : Repair.redundancy_point list;
}

module Sig_map = Map.Make (struct
  type t = Dictionary.signature

  let compare = Stdlib.compare
end)

(* Chunking pinned to the workload, as in Fault.Injector: same span tree
   and same chunk boundaries at any domain count. *)
let chunk_for trials = max 1 ((trials + 31) / 32)

let run ?pool ?(domains = 1) config (cell : Layout.Cell.t) =
  Result.iter_error (fun d -> invalid_arg (Core.Diag.to_string d))
    (validate config);
  Telemetry.with_span "testgen.campaign"
    ~attrs:
      [
        ("cell", Telemetry.String cell.Layout.Cell.name);
        ("trials", Telemetry.Int config.fault.Fault.Injector.trials);
        ("max_spares", Telemetry.Int config.max_spares);
        ("domains",
         Telemetry.Int
           (Option.fold ~none:domains ~some:Parallel.Pool.size pool));
      ]
  @@ fun () ->
  let prep = Layout.Cell.prepare cell in
  let pun = Fault.Crossing.prepare cell.Layout.Cell.pun in
  let pdn = Fault.Crossing.prepare cell.Layout.Cell.pdn in
  let reference = Layout.Cell.prepared_reference prep in
  let trials = config.fault.Fault.Injector.trials in
  let nbuckets = config.max_spares + 2 in
  let map lo hi =
    Telemetry.with_span ~parent:"testgen.campaign" "testgen.chunk"
      ~attrs:[ ("lo", Telemetry.Int lo); ("hi", Telemetry.Int hi) ]
    @@ fun () ->
    let sigs = ref Sig_map.empty in
    let hist = Array.make nbuckets 0 in
    for i = lo to hi - 1 do
      let pun_tracks, pdn_tracks =
        Fault.Injector.trial_strays config.fault ~pun ~pdn i
      in
      let drives =
        Layout.Cell.drives_of_prepared prep ~pun_tracks ~pdn_tracks
      in
      match Dictionary.classify ~reference drives with
      | [] -> hist.(0) <- hist.(0) + 1
      | signature ->
        sigs :=
          Sig_map.update signature
            (function
              | None -> Some (1, i)
              | Some (count, first) -> Some (count + 1, min first i))
            !sigs;
        let bucket =
          match Repair.min_repair_cost ~prep ~pun_tracks ~pdn_tracks with
          | Some cost when cost <= config.max_spares -> cost
          | Some _ | None -> config.max_spares + 1
        in
        hist.(bucket) <- hist.(bucket) + 1
    done;
    Telemetry.counter_add "testgen.trials" (hi - lo);
    Telemetry.counter_add "testgen.failing" (hi - lo - hist.(0));
    (!sigs, hist)
  in
  let reduce (sa, ha) (sb, hb) =
    ( Sig_map.union
        (fun _ (c1, f1) (c2, f2) -> Some (c1 + c2, min f1 f2))
        sa sb,
      Array.init nbuckets (fun i -> ha.(i) + hb.(i)) )
  in
  let campaign pool =
    Parallel.Pool.map_reduce ~chunk:(chunk_for trials) pool ~lo:0 ~hi:trials
      ~map ~reduce
      ~init:(Sig_map.empty, Array.make nbuckets 0)
  in
  let sigs, hist =
    match pool with
    | Some pool -> campaign pool
    | None -> Parallel.Pool.with_pool ~domains campaign
  in
  let dictionary =
    Dictionary.make
      ~inputs:(Layout.Cell.prepared_inputs prep)
      ~trials (Sig_map.bindings sigs)
  in
  let vectors = Vectors.generate dictionary in
  let spare_curve =
    Repair.curve_of_costs ~trials ~max_spares:config.max_spares
      ~cost_hist:hist
  in
  let redundancy =
    Repair.redundancy_curve ~p_good:config.p_good
      ~n_required:cell.Layout.Cell.drive
      ~devices:(Repair.device_count cell)
      ~max_extra:config.max_extra_tubes
  in
  {
    cell = cell.Layout.Cell.name;
    style = cell.Layout.Cell.style;
    scheme = cell.Layout.Cell.scheme;
    dictionary;
    vectors;
    spare_curve;
    redundancy;
  }
