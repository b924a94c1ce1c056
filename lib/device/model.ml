type polarity = Nfet | Pfet

type law = {
  pre : float;
  post : float;
  vt : float;
  phi : float;
  full : float;
  alpha : float;
  v_crit : float;
}

type t = {
  name : string;
  polarity : polarity;
  law : law;
  c_gate : float;
  c_drain : float;
}

(* The softplus effective overdrive (continuous and monotone through the
   threshold) over its full-drive value, raised to [alpha], times a tanh
   knee in vds.  The products associate as ((pre * drive) * knee) * post:
   the order the bit-exact characterization goldens pin for both
   models. *)
let i_d t ~vgs ~vds =
  let l = t.law in
  if vds <= 0. then 0.
  else
    let drive =
      (l.phi *. log (1. +. exp ((vgs -. l.vt) /. l.phi)) /. l.full) ** l.alpha
    in
    l.pre *. drive *. tanh (vds /. l.v_crit) *. l.post

(* Signed current into the drain node.  For an n-FET with vd > vs the
   conventional current flows drain->source, i.e. out of the drain node:
   negative into it.  Source/drain are symmetric: when vd < vs the roles
   swap.  A p-FET is the mirror image. *)
let current t ~vg ~vd ~vs =
  match t.polarity with
  | Nfet ->
    if vd >= vs then -.i_d t ~vgs:(vg -. vs) ~vds:(vd -. vs)
    else i_d t ~vgs:(vg -. vd) ~vds:(vs -. vd)
  | Pfet ->
    if vd <= vs then i_d t ~vgs:(vs -. vg) ~vds:(vs -. vd)
    else -.i_d t ~vgs:(vd -. vg) ~vds:(vd -. vs)

type inst = { l : law; n_type : bool; g : int; d : int; s : int }
type kernel = inst array

let kernel devices =
  Array.of_list
    (List.map
       (fun (t, g, d, s) -> { l = t.law; n_type = t.polarity = Nfet; g; d; s })
       devices)

(* [current] and [i_d] unrolled into one loop body.  Without flambda a
   call that returns a float boxes it, so the arithmetic is written out
   here rather than called; the kernel property test pins it to
   [current] bit for bit. *)
let add_currents k v current =
  for i = 0 to Array.length k - 1 do
    let { l; n_type; g; d; s } = k.(i) in
    let vg = v.(g) and vd = v.(d) and vs = v.(s) in
    (* [current]'s four cases: [fwd] picks the branch within a polarity,
       and [fwd = n_type] holds in exactly the two branches that negate *)
    let fwd = if n_type then vd >= vs else vd <= vs in
    let vgs =
      if n_type then if fwd then vg -. vs else vg -. vd
      else if fwd then vs -. vg
      else vd -. vg
    in
    let vds = if fwd = n_type then vd -. vs else vs -. vd in
    let i =
      if vds <= 0. then 0.
      else
        let drive =
          (l.phi *. log (1. +. exp ((vgs -. l.vt) /. l.phi)) /. l.full)
          ** l.alpha
        in
        l.pre *. drive *. tanh (vds /. l.v_crit) *. l.post
    in
    let i_drain = if fwd = n_type then -.i else i in
    current.(d) <- current.(d) +. i_drain;
    current.(s) <- current.(s) -. i_drain
  done
