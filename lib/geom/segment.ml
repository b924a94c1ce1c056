type t = { p : Vec.t; q : Vec.t }

let make p q = { p; q }
let length s = Vec.norm (Vec.sub s.q s.p)
let point_at s t = Vec.add s.p (Vec.scale t (Vec.sub s.q s.p))

let clamp01 t = if t < 0. then 0. else if t > 1. then 1. else t

let clip_to_vertical_band s ~xlo ~xhi =
  let dx = s.q.Vec.x -. s.p.Vec.x in
  if Float.abs dx < 1e-12 then
    if s.p.Vec.x >= xlo && s.p.Vec.x <= xhi then Some (0., 1.) else None
  else
    let ta = (xlo -. s.p.Vec.x) /. dx and tb = (xhi -. s.p.Vec.x) /. dx in
    let t0 = clamp01 (min ta tb) and t1 = clamp01 (max ta tb) in
    if t1 <= t0 then None else Some (t0, t1)

(* Liang–Barsky: intersect the parameter intervals imposed by the four
   half-planes of the box, in a fixed order, stopping at the first that
   empties the interval.  The interval lives in two local floats, so only
   a hit allocates; [max]/[min] are spelled out as Stdlib's, which keep
   their first argument on a tie (this decides the sign of a zero t0). *)
let clip_to_rect_f s ~x0 ~y0 ~x1 ~y1 =
  let dx = s.q.Vec.x -. s.p.Vec.x and dy = s.q.Vec.y -. s.p.Vec.y in
  let t0 = ref 0. and t1 = ref 1. and inside = ref true in
  for edge = 0 to 3 do
    if !inside then begin
      let p = match edge with 0 -> -.dx | 1 -> dx | 2 -> -.dy | _ -> dy in
      let q =
        match edge with
        | 0 -> s.p.Vec.x -. x0
        | 1 -> x1 -. s.p.Vec.x
        | 2 -> s.p.Vec.y -. y0
        | _ -> y1 -. s.p.Vec.y
      in
      if Float.abs p < 1e-12 then (if q < 0. then inside := false)
      else begin
        let r = q /. p in
        if p < 0. then (
          if r > !t1 then inside := false
          else if not (!t0 >= r) then t0 := r)
        else if r < !t0 then inside := false
        else if not (!t1 <= r) then t1 := r
      end
    end
  done;
  if !inside && not (!t1 <= !t0) then Some (!t0, !t1) else None

let pp ppf s = Format.fprintf ppf "%a->%a" Vec.pp s.p Vec.pp s.q
