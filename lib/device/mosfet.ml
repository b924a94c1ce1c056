type tech = {
  vdd : float;
  vt : float;
  alpha : float;
  k_n : float;
  k_p : float;
  v_crit : float;
  ss_mv_dec : float;
  c_gate_per_m : float;
  c_drain_per_m : float;
  l_nm : float;
}

(* 65nm-class numbers: ~0.6 mA/um nMOS on-current, ~0.3 mA/um pMOS,
   ~1.6 fF/um of gate width (incl. overlap), Vt ~ 0.35 V at Vdd = 1 V. *)
let default_tech =
  {
    vdd = 1.0;
    vt = 0.35;
    alpha = 1.3;
    k_n = 0.60e3;
    k_p = 0.30e3;
    v_crit = 0.35;
    ss_mv_dec = 100.;
    c_gate_per_m = 1.6e-9;
    c_drain_per_m = 1.0e-9;
    l_nm = 65.;
  }

(* The device's I–V law: the softplus smoothing voltage and the
   full-drive overdrive depend only on the technology, and k * width only
   on the device, so they are computed once here.  [post = 1.0]
   multiplies exactly, so every current keeps the bits of
   ((k * w) * drive) * knee. *)
let law t ~polarity ~width_nm =
  let k = match polarity with Model.Nfet -> t.k_n | Model.Pfet -> t.k_p in
  let phi = t.ss_mv_dec /. 1000. /. log 10. in
  {
    Model.pre = k *. (width_nm *. 1e-9);
    post = 1.0;
    vt = t.vt;
    phi;
    full = phi *. log (1. +. exp ((t.vdd -. t.vt) /. phi));
    alpha = t.alpha;
    v_crit = t.v_crit;
  }

let make t ?name ~polarity ~width_nm () =
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "mos_%s_%.0fn"
        (match polarity with Model.Nfet -> "n" | Model.Pfet -> "p")
        width_nm
  in
  let w_m = width_nm *. 1e-9 in
  {
    Model.name;
    polarity;
    law = law t ~polarity ~width_nm;
    c_gate = t.c_gate_per_m *. w_m;
    c_drain = t.c_drain_per_m *. w_m;
  }

let on_current t ~polarity ~width_nm =
  Model.i_d (make t ~polarity ~width_nm ()) ~vgs:t.vdd ~vds:t.vdd
