type tech = {
  chirality : int * int;
  vdd : float;
  i_tube_sat : float;
  v_crit : float;
  alpha : float;
  ss_mv_dec : float;
  screening_p0_nm : float;
  c_tube_af : float;
  c_sat_af : float;
  c_fixed_af : float;
  c_drain_af : float;
  c_drain_tube_af : float;
  ref_width_nm : float;
}

(* Constants fitted to the paper's published anchors (see EXPERIMENTS.md):
   single-tube FO4 gain ~2.75x / ~6.3x energy, optimum pitch ~5nm with
   ~4.2x delay and ~2x energy gain against the 65nm CMOS reference. *)
let default_tech =
  {
    chirality = (13, 0);
    vdd = 1.0;
    i_tube_sat = 24.7e-6;
    v_crit = 0.3;
    alpha = 1.3;
    ss_mv_dec = 100.;
    screening_p0_nm = 19.7;
    c_tube_af = 31.2;
    c_sat_af = 126.8;
    c_fixed_af = 3.7;
    c_drain_af = 38.2;
    c_drain_tube_af = 2.1;
    ref_width_nm = 130.;
  }

let screening t ~pitch_nm =
  if pitch_nm <= 0. then 0.
  else 1. -. exp (-.pitch_nm /. t.screening_p0_nm)

let pitch_of ~width_nm ~tubes =
  if tubes <= 1 then infinity else width_nm /. float_of_int (tubes - 1)

let threshold t =
  let n, m = t.chirality in
  Cnt.threshold_v ~diameter_nm:(Cnt.diameter_nm ~n ~m)

(* Per-tube current: power-law saturation with a smooth subthreshold tail
   (softplus effective overdrive, so the drive is continuous and monotone
   through the threshold) and a tanh knee in vds. *)
let softplus_overdrive ~phi ~ov = phi *. log (1. +. exp (ov /. phi))

(* The technology constants of the tube current, computed once instead of
   on every I–V call: the nominal threshold, the softplus smoothing
   voltage, the softplus overdrive at full gate drive (the drive law's
   denominator) and the knee at vds = vdd. *)
type iv = {
  tech : tech;
  vt : float;
  phi : float;
  full : float;
  on_knee : float;
}

let iv t =
  let vt = threshold t in
  let phi = t.ss_mv_dec /. 1000. /. log 10. in
  {
    tech = t;
    vt;
    phi;
    full = softplus_overdrive ~phi ~ov:(t.vdd -. vt);
    on_knee = tanh (t.vdd /. t.v_crit);
  }

(* [sat] = i_tube_sat *. eta, so the product associates as
   ((i_tube_sat *. eta) *. drive) *. knee: the order the bit-exact
   characterization goldens pin. *)
let tube_current k ~sat ~vt ~vgs ~knee =
  let ov_eff = softplus_overdrive ~phi:k.phi ~ov:(vgs -. vt) in
  let drive = (ov_eff /. k.full) ** k.tech.alpha in
  sat *. drive *. knee

let i_tube k ~sat ~vgs ~vds =
  if vds <= 0. then 0.
  else tube_current k ~sat ~vt:k.vt ~vgs ~knee:(tanh (vds /. k.tech.v_crit))

let tube_on_current k ~eta ~vt =
  tube_current k ~sat:(k.tech.i_tube_sat *. eta) ~vt ~vgs:k.tech.vdd
    ~knee:k.on_knee

let on_current_eta t ~tubes ~eta =
  let vdd = t.vdd in
  float_of_int tubes
  *. i_tube (iv t) ~sat:(t.i_tube_sat *. eta) ~vgs:vdd ~vds:vdd

let on_current t ~tubes ~width_nm =
  let eta = screening t ~pitch_nm:(pitch_of ~width_nm ~tubes) in
  on_current_eta t ~tubes ~eta

(* Gate capacitance: linear in the tube count at low density, saturating
   to the parallel-plate limit once the array is dense — the electrostatic
   outer capacitance is bounded by the gate footprint, so the plate limit
   and the fixed contact parasitic both scale with the gate width. *)
let gate_cap_af t ~tubes ~width_nm =
  let nf = float_of_int tubes in
  let scale = Float.max 0.1 (width_nm /. t.ref_width_nm) in
  let c_sat = t.c_sat_af *. scale in
  (t.c_fixed_af *. scale)
  +. (c_sat *. (1. -. exp (-.(nf *. t.c_tube_af) /. c_sat)))

let make t ?name ~polarity ~tubes ~width_nm () =
  if tubes < 1 then invalid_arg "Cnfet.make: tubes must be >= 1";
  let eta = screening t ~pitch_nm:(pitch_of ~width_nm ~tubes) in
  let nf = float_of_int tubes in
  let k = iv t in
  let sat = t.i_tube_sat *. eta in
  let af = 1e-18 in
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "cnfet_%s_%dt"
        (match polarity with Model.Nfet -> "n" | Model.Pfet -> "p")
        tubes
  in
  {
    Model.name;
    polarity;
    law =
      {
        Model.pre = sat;
        post = nf;
        vt = k.vt;
        phi = k.phi;
        full = k.full;
        alpha = t.alpha;
        v_crit = t.v_crit;
      };
    c_gate = gate_cap_af t ~tubes ~width_nm *. af;
    c_drain =
      ((t.c_drain_af *. Float.max 0.1 (width_nm /. t.ref_width_nm))
      +. (nf *. t.c_drain_tube_af))
      *. af;
  }
