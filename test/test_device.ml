(* Device model tests: CNT physics, the CNFET compact model (screening,
   plate-limited capacitance) and the alpha-power MOSFET. *)

let checkb = Alcotest.(check bool)
let tech = Device.Cnfet.default_tech
let mos = Device.Mosfet.default_tech

let cnt_physics () =
  (* (19,0): d = 0.246*19/pi ~ 1.487 nm *)
  Alcotest.(check (float 0.01)) "d(19,0)" 1.487 (Device.Cnt.diameter_nm ~n:19 ~m:0);
  checkb "(19,0) semiconducting" false (Device.Cnt.is_metallic ~n:19 ~m:0);
  checkb "(9,0) metallic" true (Device.Cnt.is_metallic ~n:9 ~m:0);
  checkb "(6,6) armchair metallic" true (Device.Cnt.is_metallic ~n:6 ~m:6);
  Alcotest.(check (float 0.02)) "Eg(1.487nm)" 0.565
    (Device.Cnt.bandgap_ev ~diameter_nm:1.487);
  checkb "Vt is half the gap" true
    (Device.Cnt.threshold_v ~diameter_nm:1.487
    = Device.Cnt.bandgap_ev ~diameter_nm:1.487 /. 2.)

let screening_properties () =
  checkb "eta in (0,1]" true
    (Device.Cnfet.screening tech ~pitch_nm:5. > 0.
    && Device.Cnfet.screening tech ~pitch_nm:5. < 1.);
  checkb "single tube unscreened" true
    (Device.Cnfet.screening tech ~pitch_nm:infinity = 1.);
  checkb "monotone in pitch" true
    (Device.Cnfet.screening tech ~pitch_nm:10.
    > Device.Cnfet.screening tech ~pitch_nm:3.);
  checkb "zero pitch kills" true (Device.Cnfet.screening tech ~pitch_nm:0. = 0.)

let pitch_of_values () =
  checkb "single tube" true
    (Device.Cnfet.pitch_of ~width_nm:130. ~tubes:1 = infinity);
  Alcotest.(check (float 1e-9)) "27 tubes at 130nm" 5.
    (Device.Cnfet.pitch_of ~width_nm:130. ~tubes:27)

let cnfet_iv_monotone =
  QCheck.Test.make ~name:"CNFET current monotone in vgs and vds" ~count:300
    QCheck.(pair (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (vgs, vds) ->
      let d =
        Device.Cnfet.make tech ~polarity:Device.Model.Nfet ~tubes:4
          ~width_nm:130. ()
      in
      let i = Device.Model.i_d d ~vgs ~vds in
      let i_vg = Device.Model.i_d d ~vgs:(vgs +. 0.05) ~vds in
      let i_vd = Device.Model.i_d d ~vgs ~vds:(vds +. 0.05) in
      i >= 0. && i_vg >= i -. 1e-15 && i_vd >= i -. 1e-15)

let cnfet_zero_vds () =
  let d =
    Device.Cnfet.make tech ~polarity:Device.Model.Nfet ~tubes:2 ~width_nm:130. ()
  in
  Alcotest.(check (float 1e-18)) "no current at vds=0" 0.
    (Device.Model.i_d d ~vgs:1. ~vds:0.)

let cnfet_tube_scaling () =
  (* at fixed (large) pitch, current scales with the tube count *)
  let i n = Device.Cnfet.on_current tech ~tubes:n ~width_nm:2000. in
  checkb "2 tubes ~ 2x 1 tube" true
    (Float.abs ((i 2 /. i 1) -. 2.) < 0.05)

let cnfet_screening_derates () =
  (* dense arrays lose per-tube drive *)
  let i_dense = Device.Cnfet.on_current tech ~tubes:27 ~width_nm:130. in
  let i_sparse = Device.Cnfet.on_current tech ~tubes:27 ~width_nm:2000. in
  checkb "dense < sparse" true (i_dense < i_sparse)

let cnfet_cap_saturates () =
  let c n = Device.Cnfet.gate_cap_af tech ~tubes:n ~width_nm:130. in
  checkb "cap grows" true (c 4 > c 1);
  checkb "cap saturates" true (c 64 -. c 32 < c 4 -. c 1);
  checkb "plate limit respected" true
    (c 1000 < tech.Device.Cnfet.c_sat_af +. tech.Device.Cnfet.c_fixed_af +. 1.)

let cnfet_cap_scales_with_width () =
  let c w = Device.Cnfet.gate_cap_af tech ~tubes:64 ~width_nm:w in
  checkb "wider gate, more cap" true (c 260. > 1.8 *. c 130.)

let cnfet_rejects_zero_tubes () =
  Alcotest.check_raises "tubes >= 1"
    (Invalid_argument "Cnfet.make: tubes must be >= 1") (fun () ->
      ignore
        (Device.Cnfet.make tech ~polarity:Device.Model.Nfet ~tubes:0
           ~width_nm:130. ()))

let mosfet_basics () =
  let i_n = Device.Mosfet.on_current mos ~polarity:Device.Model.Nfet ~width_nm:130. in
  let i_p = Device.Mosfet.on_current mos ~polarity:Device.Model.Pfet ~width_nm:130. in
  checkb "nMOS stronger than pMOS" true (i_n > i_p);
  Alcotest.(check (float 0.05)) "k ratio" 2.
    (i_n /. i_p);
  let d = Device.Mosfet.make mos ~polarity:Device.Model.Nfet ~width_nm:130. () in
  checkb "subthreshold leaks less" true
    (Device.Model.i_d d ~vgs:0.05 ~vds:1. < 0.01 *. Device.Model.i_d d ~vgs:1. ~vds:1.);
  checkb "width scales current" true
    (Device.Mosfet.on_current mos ~polarity:Device.Model.Nfet ~width_nm:260.
    > 1.9 *. i_n)

let model_current_signs () =
  let n = Device.Mosfet.make mos ~polarity:Device.Model.Nfet ~width_nm:130. () in
  (* n-FET pulling down: drain above source, current OUT of drain node *)
  checkb "nfet discharges drain" true
    (Device.Model.current n ~vg:1. ~vd:1. ~vs:0. < 0.);
  (* symmetric operation: swap roles *)
  checkb "nfet symmetric" true (Device.Model.current n ~vg:1. ~vd:0. ~vs:1. > 0.);
  let p = Device.Mosfet.make mos ~polarity:Device.Model.Pfet ~width_nm:130. () in
  (* p-FET pulling up: source at vdd, gate low -> current INTO drain *)
  checkb "pfet charges drain" true
    (Device.Model.current p ~vg:0. ~vd:0. ~vs:1. > 0.);
  checkb "pfet off when gate high" true
    (Float.abs (Device.Model.current p ~vg:1. ~vd:0. ~vs:1.)
    < 0.01 *. Float.abs (Device.Model.current p ~vg:0. ~vd:0. ~vs:1.))

(* The batch kernel unrolls [current] and [i_d] into one loop: on random
   CNFETs and MOSFETs of either polarity wired between random nodes
   (shared terminals and vd = vs included), it must accumulate exactly
   the bits a fold of [current] does. *)
let kernel_matches_current =
  let open QCheck.Gen in
  let device =
    let* polarity = oneofl Device.Model.[ Nfet; Pfet ] in
    let* model =
      oneof
        [
          (let* tubes = int_range 1 40 in
           let* width_nm = float_range 20. 400. in
           return (Device.Cnfet.make tech ~polarity ~tubes ~width_nm ()));
          (let* width_nm = float_range 50. 600. in
           return (Device.Mosfet.make mos ~polarity ~width_nm ()));
        ]
    in
    let* g = int_bound 4 and* d = int_bound 4 and* s = int_bound 4 in
    return (model, g, d, s)
  in
  let volt = oneof [ float_range (-0.5) 2.; oneofl [ 0.; 0.5; 1. ] ] in
  let gen = pair (list_size (int_range 1 6) device) (array_repeat 5 volt) in
  QCheck.Test.make ~name:"batch kernel bit-identical to Model.current"
    ~count:500
    (QCheck.make
       ~print:(fun (devs, v) ->
         Printf.sprintf "%s | v = %s"
           (String.concat "; "
              (List.map
                 (fun ((m : Device.Model.t), g, d, s) ->
                   Printf.sprintf "%s g%d d%d s%d" m.Device.Model.name g d s)
                 devs))
           (String.concat " " (Array.to_list (Array.map string_of_float v))))
       gen)
    (fun (devs, v) ->
      let got = Array.make 5 0. and want = Array.make 5 0. in
      Device.Model.add_currents (Device.Model.kernel devs) v got;
      List.iter
        (fun (m, g, d, s) ->
          let i = Device.Model.current m ~vg:v.(g) ~vd:v.(d) ~vs:v.(s) in
          want.(d) <- want.(d) +. i;
          want.(s) <- want.(s) -. i)
        devs;
      Array.for_all2
        (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
        got want)

let fitted_anchor_tube_current () =
  (* on-current of one unscreened tube is the fitted i_tube_sat *)
  Alcotest.(check (float 0.15))
    "1-tube on current (normalized)" 1.0
    (Device.Cnfet.on_current tech ~tubes:1 ~width_nm:130.
    /. tech.Device.Cnfet.i_tube_sat
    /. tanh (1.0 /. tech.Device.Cnfet.v_crit))

let suite =
  [
    Alcotest.test_case "CNT physics" `Quick cnt_physics;
    Alcotest.test_case "screening properties" `Quick screening_properties;
    Alcotest.test_case "pitch_of" `Quick pitch_of_values;
    Alcotest.test_case "CNFET zero vds" `Quick cnfet_zero_vds;
    Alcotest.test_case "CNFET tube scaling" `Quick cnfet_tube_scaling;
    Alcotest.test_case "CNFET screening derates drive" `Quick
      cnfet_screening_derates;
    Alcotest.test_case "CNFET cap saturates" `Quick cnfet_cap_saturates;
    Alcotest.test_case "CNFET cap scales with width" `Quick
      cnfet_cap_scales_with_width;
    Alcotest.test_case "CNFET rejects zero tubes" `Quick
      cnfet_rejects_zero_tubes;
    Alcotest.test_case "MOSFET basics" `Quick mosfet_basics;
    Alcotest.test_case "terminal current signs" `Quick model_current_signs;
    Alcotest.test_case "fitted tube current anchor" `Quick
      fitted_anchor_tube_current;
    QCheck_alcotest.to_alcotest cnfet_iv_monotone;
    QCheck_alcotest.to_alcotest kernel_matches_current;
  ]
