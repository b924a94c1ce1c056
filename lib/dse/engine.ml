type config = {
  cell : string;
  style : Layout.Cell.style;
  space : Knobs.space;
  load : int;
  max_trials : int;
  min_trials : int;
  batch : int;
  z : float;
  eps : float;
  margin : float;
  variation_samples : int;
  seed : int;
  adaptive : bool;
}

let default ~cell =
  {
    cell;
    style = Layout.Cell.Vulnerable;
    space = Knobs.default_space;
    load = 2;
    max_trials = 400;
    min_trials = 40;
    batch = 40;
    z = 3.0;
    eps = 0.02;
    margin = 0.04;
    variation_samples = 400;
    seed = 42;
    adaptive = true;
  }

type eval = {
  point : Knobs.point;
  ordinal : int;
  tubes : int;
  area_lambda2 : int;
  delay_ps : float;
  energy_fj : float;
  metallic_yield : float;
  yield_ : float;
  yield_lo : float;
  yield_hi : float;
  trials : int;
  pruned : bool;
}

type outcome = {
  cell : string;
  style : Layout.Cell.style;
  adaptive : bool;
  fine_grid : int;
  rounds : int;
  trials_total : int;
  evaluated : eval list;
  front : eval list;
}

let objectives e = [| e.delay_ps; e.energy_fj; -.e.yield_ |]

let wilson ~z ~n ~successes =
  if n <= 0 then
    invalid_arg (Printf.sprintf "Dse.Engine.wilson: n = %d must be positive" n);
  let nf = float_of_int n in
  let p = float_of_int successes /. nf in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. nf) in
  let center = (p +. (z2 /. (2. *. nf))) /. denom in
  let hw =
    z *. sqrt ((p *. (1. -. p) /. nf) +. (z2 /. (4. *. nf *. nf))) /. denom
  in
  (Float.max 0. (center -. hw), Float.min 1. (center +. hw))

let validate (config : config) =
  let ( let* ) = Result.bind in
  let fail fmt = Core.Diag.failf ~stage:"dse.engine" ~context:[] fmt in
  let* () = if config.cell <> "" then Ok () else fail "empty cell name" in
  let* () =
    if config.load >= 0 then Ok ()
    else fail "load %d must be non-negative" config.load
  in
  let* () =
    if config.max_trials >= 1 then Ok ()
    else fail "max_trials %d must be >= 1" config.max_trials
  in
  let* () =
    if config.min_trials >= 1 && config.min_trials <= config.max_trials then
      Ok ()
    else
      fail "min_trials %d must lie in [1, max_trials = %d]" config.min_trials
        config.max_trials
  in
  let* () =
    if config.batch >= 1 then Ok ()
    else fail "batch %d must be >= 1" config.batch
  in
  let* () =
    if config.z > 0. && Float.is_finite config.z then Ok ()
    else fail "z = %g must be positive and finite" config.z
  in
  let* () =
    if config.eps > 0. && Float.is_finite config.eps then Ok ()
    else fail "eps = %g must be positive and finite" config.eps
  in
  let* () =
    if config.margin >= 0. && Float.is_finite config.margin then Ok ()
    else fail "margin = %g must be non-negative and finite" config.margin
  in
  let* () =
    if config.variation_samples >= 1 then Ok ()
    else fail "variation_samples %d must be >= 1" config.variation_samples
  in
  Knobs.validate config.space

exception Abort of Core.Diag.t

let ok_or_abort = function Ok v -> v | Error d -> raise (Abort d)

(* Characterization state shared by every point at one (pitch, drive):
   the library built at that grown pitch, the cell entry, the tube count
   under its unit-path gate, and ONE prepared variation sampler — the
   sampler is computed once here and shared, never re-derived per arc. *)
type char_point = {
  cp_fn : Logic.Cell_fun.t;
  cp_tubes : int;
  cp_delay_ps : float;
  cp_energy_fj : float;
}

(* Misposition state shared by every point at one (drive, scheme): the
   style-under-test layout with its prepared trial caches. *)
type mc_point = {
  mp_prep : Layout.Cell.prepared;
  mp_pun : Fault.Crossing.prepared;
  mp_pdn : Fault.Crossing.prepared;
  mp_rows : int;
  mp_area : int;
}

let run_on ~pool (config : config) =
  let ( let* ) = Result.bind in
  let* () = validate config in
  let config = { config with space = Knobs.canonical config.space } in
  let space = config.space in
  let rules = Pdk.Rules.default in
  let tech = Device.Cnfet.default_tech in
  let spec =
    {
      Device.Variation.default_spec with
      Device.Variation.samples = config.variation_samples;
      seed = config.seed;
    }
  in
  let characterize (pitch_nm, drive) =
    let* lib = Stdcell.Library.cnfet ~rules ~pitch_nm ~drives:[ drive ] () in
    let* entry = Stdcell.Library.find lib ~name:config.cell ~drive in
    let width_lambda = entry.Stdcell.Library.width_lambda_base in
    let tubes = Stdcell.Library.tubes_for ~pitch_nm tech ~rules ~width_lambda in
    let width_nm = Pdk.Rules.nm_of_lambda rules width_lambda in
    let sampler = Device.Variation.prepare_sampler tech spec ~tubes ~width_nm in
    let* arcs =
      Stdcell.Characterize.all_arcs ~variation:sampler ~lib entry
        ~load_inv1x:config.load
    in
    Ok
      {
        cp_fn = entry.Stdcell.Library.fn;
        cp_tubes = tubes;
        cp_delay_ps = Stdcell.Characterize.worst_delay arcs *. 1e12;
        cp_energy_fj = Stdcell.Characterize.total_energy arcs *. 1e15;
      }
  in
  let char_cache : (float * int, (char_point, Core.Diag.t) result) Hashtbl.t =
    Hashtbl.create 16
  in
  (* Characterize a round's uncached (pitch, drive) keys on the pool before
     any of its points is scored.  A key's result is a pure function of
     (cell, pitch, drive, load, seed), so the pool only decides how fast
     the cache fills; a failed key is stored and raised only when the
     evaluation order reaches it, so the first error is the serial one. *)
  let prefetch idxs =
    let keys =
      List.fold_left
        (fun acc idx ->
          let p = Knobs.point_of_index space idx in
          let key = (p.Knobs.pitch_nm, p.Knobs.drive) in
          if Hashtbl.mem char_cache key || List.mem key acc then acc
          else key :: acc)
        [] idxs
      |> List.rev |> Array.of_list
    in
    Parallel.Pool.init_array pool (Array.length keys) ~f:(fun i ->
        characterize keys.(i))
    |> Array.iteri (fun i r -> Hashtbl.add char_cache keys.(i) r)
  in
  let mc_cache : (int * Layout.Cell.scheme, mc_point) Hashtbl.t =
    Hashtbl.create 8
  in
  let mc_prepared ~fn ~drive ~scheme =
    match Hashtbl.find_opt mc_cache (drive, scheme) with
    | Some m -> m
    | None ->
      let m =
        ok_or_abort
          (let* cell =
             Layout.Cell.make ~rules ~fn ~style:config.style ~scheme
               ~drive:(drive * Stdcell.Library.base_width_lambda)
           in
           Ok
             {
               mp_prep = Layout.Cell.prepare cell;
               mp_pun = Fault.Crossing.prepare cell.Layout.Cell.pun;
               mp_pdn = Fault.Crossing.prepare cell.Layout.Cell.pdn;
               mp_rows =
                 List.length cell.Layout.Cell.pun.Layout.Fabric.rows
                 + List.length cell.Layout.Cell.pdn.Layout.Fabric.rows;
               mp_area = Layout.Cell.footprint_area cell;
             })
      in
      Hashtbl.add mc_cache (drive, scheme) m;
      m
  in
  let trials_total = ref 0 in
  let mc_chunk = max 1 ((config.batch + 7) / 8) in
  (* The per-point misposition campaign, batched with three stop rules:
     (1) budget exhausted; (2) precision — the scaled Wilson half-width is
     within eps (point-pure: fires identically under adaptive and
     exhaustive evaluation); (3) certainty — even if every remaining
     trial survived, the final yield could not reach [threshold], so the
     point is provably dominated by the running front.  Rule 3 is the
     only front-dependent rule; its bar is already discounted by the bar
     point's own noise band (see [noise_band]), so a challenger within MC
     noise of the bar is never stopped by it. *)
  let yield_mc ~icfg ~(m : mc_point) ~metallic_yield ~threshold =
    let rec go n fails =
      let p_max =
        (* survival if every remaining trial succeeded *)
        float_of_int (n - fails + (config.max_trials - n))
        /. float_of_int config.max_trials
      in
      if config.adaptive && metallic_yield *. p_max < threshold then
        (n, fails, true)
      else if n >= config.max_trials then (n, fails, false)
      else begin
        let hi = min config.max_trials (n + config.batch) in
        let batch_fails =
          Parallel.Pool.map_reduce ~chunk:mc_chunk pool ~lo:n ~hi
            ~map:(fun clo chi ->
              let f = ref 0 in
              for i = clo to chi - 1 do
                let failed, _, _, _ =
                  Fault.Injector.run_trial icfg ~prep:m.mp_prep ~pun:m.mp_pun
                    ~pdn:m.mp_pdn i
                in
                if failed then incr f
              done;
              !f)
            ~reduce:( + ) ~init:0
        in
        Telemetry.counter_add "dse.trials" (hi - n);
        trials_total := !trials_total + (hi - n);
        let n = hi and fails = fails + batch_fails in
        let lo_s, hi_s = wilson ~z:config.z ~n ~successes:(n - fails) in
        if
          n >= config.min_trials
          && metallic_yield *. (hi_s -. lo_s) /. 2. <= config.eps
        then (n, fails, false)
        else go n fails
      end
    in
    go 0 0
  in
  (* Running front over the non-pruned evaluations, in evaluation order. *)
  let evaluated_rev = ref [] in
  let by_ordinal : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let front = ref [] in
  let recompute_front () =
    let candidates =
      List.rev !evaluated_rev |> List.filter (fun e -> not e.pruned)
    in
    front := fst (Pareto.front ~objectives candidates)
  in
  (* The noise band of an evaluation: how far its sampled yield may sit
     below its true yield, as witnessed by its own Wilson upper bound,
     capped at [margin].  Deterministic campaigns (immune styles: every
     trial survives, so the upper bound pins to the estimate) get a band
     of exactly 0 — the noise machinery costs them nothing. *)
  let noise_band e = Float.min config.margin (e.yield_hi -. e.yield_) in
  (* Best front yield at no worse delay and energy, each bar discounted
     by its own noise band: the bar a point must provably clear to stay
     alive under rule 3.  Without the discount a bar whose MC draw came
     in high prunes a challenger the exhaustive front keeps (the §5i
     near-tie caveat). *)
  let threshold_for ~delay_ps ~energy_fj =
    List.fold_left
      (fun acc f ->
        if f.delay_ps <= delay_ps && f.energy_fj <= energy_fj then
          Float.max acc (f.yield_ -. noise_band f)
        else acc)
      Float.neg_infinity !front
  in
  let eval_point idx =
    let ordinal = Knobs.ordinal space idx in
    if not (Hashtbl.mem by_ordinal ordinal) then begin
      Hashtbl.add by_ordinal ordinal ();
      let p = Knobs.point_of_index space idx in
      let c =
        ok_or_abort (Hashtbl.find char_cache (p.Knobs.pitch_nm, p.Knobs.drive))
      in
      let m =
        mc_prepared ~fn:c.cp_fn ~drive:p.Knobs.drive ~scheme:p.Knobs.scheme
      in
      let metallic_yield =
        Fault.Metallic.analytic_cell_yield
          {
            Fault.Metallic.p_metallic = p.Knobs.p_metallic;
            removal_eff = p.Knobs.removal_eff;
            tubes_per_row = c.cp_tubes;
            trials = 1;
            seed = 0;
          }
          ~rows:m.mp_rows
      in
      let threshold =
        if config.adaptive then
          threshold_for ~delay_ps:c.cp_delay_ps ~energy_fj:c.cp_energy_fj
        else Float.neg_infinity
      in
      let point_seed =
        (Parallel.Split_rng.ints ~seed:config.seed ~stream:ordinal).(0)
      in
      let icfg =
        {
          Fault.Injector.default_config with
          Fault.Injector.trials = config.max_trials;
          seed = point_seed;
        }
      in
      let n, fails, pruned =
        yield_mc ~icfg ~m ~metallic_yield ~threshold
      in
      let survival =
        if n = 0 then 1. else float_of_int (n - fails) /. float_of_int n
      in
      let lo_s, hi_s =
        if n = 0 then (0., 1.) else wilson ~z:config.z ~n ~successes:(n - fails)
      in
      let e =
        {
          point = p;
          ordinal;
          tubes = c.cp_tubes;
          area_lambda2 = m.mp_area;
          delay_ps = c.cp_delay_ps;
          energy_fj = c.cp_energy_fj;
          metallic_yield;
          yield_ = metallic_yield *. survival;
          yield_lo = metallic_yield *. lo_s;
          yield_hi = metallic_yield *. hi_s;
          trials = n;
          pruned;
        }
      in
      evaluated_rev := e :: !evaluated_rev;
      Telemetry.counter_add "dse.points" 1;
      if pruned then Telemetry.counter_add "dse.pruned" 1;
      recompute_front ()
    end
  in
  let rounds = ref 0 in
  let eval_round ~level idxs =
    incr rounds;
    Telemetry.with_span ~parent:"dse.campaign" "dse.round"
      ~attrs:
        [
          ("round", Telemetry.Int !rounds);
          ("level", Telemetry.Int level);
          ("candidates", Telemetry.Int (List.length idxs));
        ]
      (fun () ->
        prefetch idxs;
        List.iter eval_point idxs)
  in
  let by_ord_sorted idxs =
    List.sort_uniq
      (fun a b -> Int.compare (Knobs.ordinal space a) (Knobs.ordinal space b))
      idxs
  in
  let dims = Knobs.axes space in
  let naxes = Array.length dims in
  (* All index vectors whose every component lies on the level's grid. *)
  let grid_at_level level =
    let axis_sets =
      Array.init naxes (fun a -> Knobs.level_indices dims.(a) level)
    in
    let rec expand a acc =
      if a >= naxes then [ Array.of_list (List.rev acc) ]
      else
        List.concat_map (fun i -> expand (a + 1) (i :: acc)) axis_sets.(a)
    in
    by_ord_sorted (expand 0 [])
  in
  (* One-axis-at-a-time neighbours of a front point on the level grid:
     the predecessor and successor of its coordinate in each axis's
     level set (level sets are nested, so the coordinate is a member). *)
  let neighbours_at_level level e =
    let idx = Knobs.index_of_ordinal space e.ordinal in
    List.concat
      (List.init naxes (fun a ->
           let set = Knobs.level_indices dims.(a) level in
           let rec pred_succ prev = function
             | [] -> []
             | x :: rest ->
               if x = idx.(a) then
                 (match prev with Some p -> [ p ] | None -> [])
                 @ (match rest with n :: _ -> [ n ] | [] -> [])
               else pred_succ (Some x) rest
           in
           pred_succ None set
           |> List.map (fun v ->
                  let nidx = Array.copy idx in
                  nidx.(a) <- v;
                  nidx)))
  in
  (* The greedy walk expands neighbours of the running front.  With MC
     noise, a true front point can hide behind a neighbour whose sampled
     yield lost a near-tie — the walk then stops one cell short of it
     (the §5i caveat).  So the walk is seeded from every {e near-tied}
     evaluation too: a point whose yield, credited its own noise band,
     would be non-dominated still gets its neighbours explored.  Front
     members trivially qualify, so this widens the seed set — but only on
     noisy (vulnerable-style) campaigns, where the band is non-zero. *)
  let walk_seeds () =
    let near e =
      (not e.pruned)
      &&
      let boosted =
        [| e.delay_ps; e.energy_fj; -.(e.yield_ +. noise_band e) |]
      in
      not
        (List.exists (fun f -> Pareto.dominates (objectives f) boosted) !front)
    in
    List.filter near (List.rev !evaluated_rev)
  in
  if not config.adaptive then
    eval_round ~level:0 (grid_at_level 0)
  else begin
    let lmax = Knobs.max_level space in
    eval_round ~level:lmax (grid_at_level lmax);
    let level = ref lmax in
    let finished = ref false in
    while not !finished do
      let l = !level in
      let candidates =
        List.concat_map (neighbours_at_level l) (walk_seeds ())
        |> List.filter (fun idx ->
               not (Hashtbl.mem by_ordinal (Knobs.ordinal space idx)))
        |> by_ord_sorted
      in
      if candidates <> [] then eval_round ~level:l candidates
      else if l = 0 then finished := true
      else level := l - 1
    done
  end;
  Telemetry.gauge_set "dse.front_size" (float_of_int (List.length !front));
  Ok
    {
      cell = config.cell;
      style = config.style;
      adaptive = config.adaptive;
      fine_grid = Knobs.card space;
      rounds = !rounds;
      trials_total = !trials_total;
      evaluated = List.rev !evaluated_rev;
      front = !front;
    }

let run ?pool ?(domains = 1) (config : config) =
  let campaign pool =
    Telemetry.with_span "dse.campaign"
      ~attrs:
        [
          ("cell", Telemetry.String config.cell);
          ("adaptive", Telemetry.Bool config.adaptive);
        ]
      (fun () ->
        match run_on ~pool config with
        | r -> r
        | exception Abort d -> Error d)
  in
  match pool with
  | Some pool -> campaign pool
  | None -> Parallel.Pool.with_pool ~domains campaign
