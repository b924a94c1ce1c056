let graphene_lattice_nm = 0.246
let is_metallic ~n ~m = (n - m) mod 3 = 0

let diameter_nm ~n ~m =
  let n = float_of_int n and m = float_of_int m in
  graphene_lattice_nm *. sqrt ((n *. n) +. (n *. m) +. (m *. m)) /. Float.pi

let bandgap_ev ~diameter_nm =
  if diameter_nm <= 0. then invalid_arg "Cnt.bandgap_ev";
  0.84 /. diameter_nm

let threshold_v ~diameter_nm = bandgap_ev ~diameter_nm /. 2.
