type t = { x : float; y : float }

let v x y = { x; y }
let zero = { x = 0.; y = 0. }
let add a b = { x = a.x +. b.x; y = a.y +. b.y }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y }
let scale k a = { x = k *. a.x; y = k *. a.y }
let dot a b = (a.x *. b.x) +. (a.y *. b.y)
let norm a = sqrt (dot a a)

let normalize a =
  let n = norm a in
  if n = 0. then invalid_arg "Vec.normalize: zero vector";
  scale (1. /. n) a

let pp ppf a = Format.fprintf ppf "(%g, %g)" a.x a.y
