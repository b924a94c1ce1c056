type config = {
  trials : int;
  tracks_per_trial : int;
  max_angle_deg : float;
  margin : float;
  seed : int;
}

let default_config =
  { trials = 1000; tracks_per_trial = 3; max_angle_deg = 8.; margin = 2.; seed = 42 }

(* a non-finite angle makes every track NaN, and NaN tracks cross
   nothing: a vulnerable cell would read as immune *)
let validate config =
  let fail field value msg =
    Core.Diag.fail ~stage:"fault.injector" ~context:[ (field, value) ] msg
  in
  if config.trials <= 0 then
    fail "trials" (string_of_int config.trials) "trials must be positive"
  else if config.tracks_per_trial < 0 then
    fail "tracks_per_trial"
      (string_of_int config.tracks_per_trial)
      "tracks_per_trial must be non-negative"
  else if not (config.max_angle_deg >= 0. && config.max_angle_deg <= 90.) then
    fail "max_angle_deg"
      (string_of_float config.max_angle_deg)
      "max_angle_deg must be a finite angle in [0, 90]"
  else Ok ()

type outcome = {
  trials : int;
  functional_failures : int;
  shorted_trials : int;
  fight_trials : int;
  float_trials : int;
  stray_edges : int;
}

let failure_rate o =
  if o.trials = 0 then 0.
  else float_of_int o.functional_failures /. float_of_int o.trials

(* Everything a trial sprays is derived from the trial index: the RNG is
   split per trial (see Parallel.Split_rng), so the strays depend only on
   [config.seed] and the index — not on the domain or chunk that runs
   them.  This is what makes campaign outcomes bit-identical at any
   [~domains], and what lets the testgen layer replay exactly the trials
   tallied here. *)
let trial_strays config ~pun ~pdn index =
  let rng = Parallel.Split_rng.state ~seed:config.seed ~stream:index in
  let spray p =
    let bbox = (Crossing.fabric p).Layout.Fabric.bbox in
    (* List.init calls in index order, so the tracks draw from [rng] in
       sampling order; the crossing query draws nothing *)
    List.init config.tracks_per_trial (fun _ ->
        (Track.sample rng ~bbox ~max_angle_deg:config.max_angle_deg
           ~margin:config.margin)
          .Track.seg
        |> Crossing.edges_prepared p)
  in
  let pun_tracks = spray pun in
  let pdn_tracks = spray pdn in
  (pun_tracks, pdn_tracks)

let run_trial config ~prep ~pun ~pdn index =
  let pun_tracks, pdn_tracks = trial_strays config ~pun ~pdn index in
  let drives = Layout.Cell.drives_of_prepared prep ~pun_tracks ~pdn_tracks in
  let reference = Layout.Cell.prepared_reference prep in
  let failed = ref false and fight = ref false and floating = ref false in
  Array.iteri
    (fun row d ->
      if Logic.Switch_graph.value_of_drive d <> Logic.Truth.value reference row
      then failed := true;
      match d with
      | Logic.Switch_graph.Fight -> fight := true
      | Logic.Switch_graph.Floating -> floating := true
      | Logic.Switch_graph.High | Logic.Switch_graph.Low -> ())
    drives;
  let edges tracks = List.fold_left (fun n g -> n + List.length g) 0 tracks in
  (!failed, !fight, !floating, edges pun_tracks + edges pdn_tracks)

let style_slug = function
  | Layout.Cell.Immune_new -> "immune_new"
  | Layout.Cell.Immune_old -> "immune_old"
  | Layout.Cell.Vulnerable -> "vulnerable"
  | Layout.Cell.Cmos -> "cmos"

(* Chunking is pinned to the workload, never to the domain count, so the
   per-chunk telemetry spans form the same tree at any [~domains] — the
   outcome was already domain-independent (integer sums), this extends
   the guarantee to the observability output. *)
let chunk_for trials = max 1 ((trials + 31) / 32)

let run ?pool ?(domains = 1) config (cell : Layout.Cell.t) =
  Result.iter_error (fun d -> invalid_arg (Core.Diag.to_string d))
    (validate config);
  let style = style_slug cell.Layout.Cell.style in
  Telemetry.with_span "fault.campaign"
    ~attrs:
      [
        ("cell", Telemetry.String cell.Layout.Cell.name);
        ("style", Telemetry.String style);
        ("trials", Telemetry.Int config.trials);
        ("tracks_per_trial", Telemetry.Int config.tracks_per_trial);
        ("seed", Telemetry.Int config.seed);
        ("domains",
         Telemetry.Int
           (Option.fold ~none:domains ~some:Parallel.Pool.size pool));
      ]
  @@ fun () ->
  let prep = Layout.Cell.prepare cell in
  let pun = Crossing.prepare cell.Layout.Cell.pun in
  let pdn = Crossing.prepare cell.Layout.Cell.pdn in
  let map lo hi =
    (* Worker domains have an empty span stack, so the chunk's parent is
       pinned explicitly to keep the span tree identical at any domain
       count. *)
    Telemetry.with_span ~parent:"fault.campaign" "fault.chunk"
      ~attrs:[ ("lo", Telemetry.Int lo); ("hi", Telemetry.Int hi) ]
    @@ fun () ->
    let failures = ref 0 and shorts = ref 0 and fights = ref 0
    and floats = ref 0 and stray = ref 0 in
    for i = lo to hi - 1 do
      let failed, fight, floating, edges = run_trial config ~prep ~pun ~pdn i in
      if failed then incr failures;
      if fight || floating then incr shorts;
      if fight then incr fights;
      if floating then incr floats;
      stray := !stray + edges
    done;
    let n = hi - lo in
    Telemetry.counter_add "fault.trials" n;
    Telemetry.counter_add "fault.crossings_tested"
      (2 * config.tracks_per_trial * n);
    Telemetry.counter_add ("fault." ^ style ^ ".failed") !failures;
    Telemetry.counter_add ("fault." ^ style ^ ".immune") (n - !failures);
    (!failures, !shorts, !fights, !floats, !stray)
  in
  let campaign pool =
    Parallel.Pool.map_reduce ~chunk:(chunk_for config.trials) pool ~lo:0
      ~hi:config.trials ~map
      ~reduce:(fun (a, b, c, d, e) (f, g, h, i, j) ->
        (a + f, b + g, c + h, d + i, e + j))
      ~init:(0, 0, 0, 0, 0)
  in
  let failures, shorts, fights, floats, stray =
    (* A caller-supplied pool (the job service's long-lived workers) is
       reused as is; chunking stays pinned to the workload either way, so
       the outcome and the span tree are identical on any pool. *)
    match pool with
    | Some pool -> campaign pool
    | None -> Parallel.Pool.with_pool ~domains campaign
  in
  {
    trials = config.trials;
    functional_failures = failures;
    shorted_trials = shorts;
    fight_trials = fights;
    float_trials = floats;
    stray_edges = stray;
  }

let horizontal_sweep (cell : Layout.Cell.t) =
  let prep = Layout.Cell.prepare cell in
  let reference = Layout.Cell.prepared_reference prep in
  let corridor_ys (f : Layout.Fabric.t) =
    let bounds =
      List.concat_map
        (fun (p : Layout.Fabric.placed) ->
          [ p.Layout.Fabric.rect.Geom.Rect.y0; p.Layout.Fabric.rect.Geom.Rect.y1 ])
        f.Layout.Fabric.items
      @ [ f.Layout.Fabric.bbox.Geom.Rect.y0 - 1; f.Layout.Fabric.bbox.Geom.Rect.y1 + 1 ]
      |> List.sort_uniq Stdlib.compare
    in
    let rec mids = function
      | a :: (b :: _ as rest) ->
        ((float_of_int a +. float_of_int b) /. 2.) :: mids rest
      | [ _ ] | [] -> []
    in
    (* band midpoints plus the boundaries themselves (a CNT can run exactly
       on a boundary; treat it as infinitesimally inside via +- epsilon) *)
    mids bounds
  in
  let track_at (f : Layout.Fabric.t) y =
    Track.horizontal ~y
      ~x0:(float_of_int f.Layout.Fabric.bbox.Geom.Rect.x0 -. 1.)
      ~x1:(float_of_int f.Layout.Fabric.bbox.Geom.Rect.x1 +. 1.)
  in
  let check_region which (f : Layout.Fabric.t) =
    let p = Crossing.prepare f in
    List.filter_map
      (fun y ->
        let extra = Crossing.edges_prepared p (track_at f y).Track.seg in
        let pun_tracks, pdn_tracks =
          match which with `Pun -> ([ extra ], []) | `Pdn -> ([], [ extra ])
        in
        let got = Layout.Cell.truth_of_prepared prep ~pun_tracks ~pdn_tracks in
        if not (Logic.Truth.equal got reference) then Some y else None)
      (corridor_ys f)
  in
  let bad =
    check_region `Pun cell.Layout.Cell.pun
    @ check_region `Pdn cell.Layout.Cell.pdn
  in
  if bad = [] then Ok () else Error bad
