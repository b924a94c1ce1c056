type spec = {
  mean_diameter_nm : float;
  sigma_diameter_nm : float;
  pitch_variation_frac : float;
  samples : int;
  seed : int;
}

let default_spec =
  { mean_diameter_nm = 1.0; sigma_diameter_nm = 0.15;
    pitch_variation_frac = 0.1; samples = 2000; seed = 11 }

type stats = {
  mean : float;
  sigma : float;
  p5 : float;
  p95 : float;
}

let gaussian rng ~mean ~sigma =
  let u1 = Float.max 1e-12 (Random.State.float rng 1.) in
  let u2 = Random.State.float rng 1. in
  mean +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let stats_of samples =
  let n = float_of_int (Array.length samples) in
  let mean = Array.fold_left ( +. ) 0. samples /. n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. samples /. n
  in
  let sorted = Array.copy samples in
  Array.sort Stdlib.compare sorted;
  let pct p =
    sorted.(max 0 (min (Array.length sorted - 1)
                     (int_of_float (p *. n /. 100.))))
  in
  { mean; sigma = sqrt var; p5 = pct 5.; p95 = pct 95. }

(* One sampled device: per-tube threshold from its sampled diameter, with
   the drive evaluated at vgs = vds = vdd (the same operating point the
   calibration anchors use). *)
let sample_on_current (t : Cnfet.tech) iv spec rng ~tubes ~width_nm =
  let nominal_pitch = Cnfet.pitch_of ~width_nm ~tubes in
  let tube_current () =
    let d =
      Float.max 0.4
        (gaussian rng ~mean:spec.mean_diameter_nm ~sigma:spec.sigma_diameter_nm)
    in
    let vt = Cnt.threshold_v ~diameter_nm:d in
    let pitch =
      if Float.is_finite nominal_pitch then
        Float.max 0.5
          (nominal_pitch
          *. (1.
             +. gaussian rng ~mean:0. ~sigma:spec.pitch_variation_frac))
      else nominal_pitch
    in
    Cnfet.tube_on_current iv ~eta:(Cnfet.screening t ~pitch_nm:pitch) ~vt
  in
  let total = ref 0. in
  for _ = 1 to tubes do
    total := !total +. tube_current ()
  done;
  !total

(* Every sample draws from its own [(seed, index)]-derived stream, so the
   assembled sample array — and hence the stats — is bit-identical at any
   [~domains]; chunks only decide who computes which indices. *)
let on_current_stats ?(domains = 1) t spec ~tubes ~width_nm =
  if spec.samples <= 0 then
    invalid_arg
      (Printf.sprintf
         "Device.Variation.on_current_stats: samples must be positive (got %d)"
         spec.samples);
  let iv = Cnfet.iv t in
  let sample i =
    let rng = Parallel.Split_rng.state ~seed:spec.seed ~stream:i in
    sample_on_current t iv spec rng ~tubes ~width_nm
  in
  let samples =
    Parallel.Pool.with_pool ~domains (fun pool ->
        Parallel.Pool.init_array pool spec.samples ~f:sample)
  in
  stats_of samples

let delay_spread_estimate ?domains t spec ~tubes ~width_nm =
  let s = on_current_stats ?domains t spec ~tubes ~width_nm in
  if s.mean = 0. then 0. else s.sigma /. s.mean

type sampler = {
  tubes : int;
  width_nm : float;
  stats : stats;
  slow_derate : float;
}

let slow_derate_of stats =
  if stats.p5 > 0. && Float.is_finite stats.p5 then
    Float.max 1. (stats.mean /. stats.p5)
  else 1.

let prepare_sampler ?domains t spec ~tubes ~width_nm =
  let stats = on_current_stats ?domains t spec ~tubes ~width_nm in
  { tubes; width_nm; stats; slow_derate = slow_derate_of stats }

let neutral_sampler ~tubes ~width_nm =
  {
    tubes;
    width_nm;
    stats = { mean = 1.; sigma = 0.; p5 = 1.; p95 = 1. };
    slow_derate = 1.;
  }
