type t = { x0 : int; y0 : int; x1 : int; y1 : int }

let make ~x0 ~y0 ~x1 ~y1 =
  { x0 = min x0 x1; y0 = min y0 y1; x1 = max x0 x1; y1 = max y0 y1 }

let of_size ~x ~y ~w ~h =
  if w < 0 || h < 0 then invalid_arg "Rect.of_size: negative size";
  { x0 = x; y0 = y; x1 = x + w; y1 = y + h }

let empty = { x0 = 0; y0 = 0; x1 = 0; y1 = 0 }
let width r = r.x1 - r.x0
let height r = r.y1 - r.y0
let area r = width r * height r
let is_empty r = r.x0 >= r.x1 || r.y0 >= r.y1

let translate ~dx ~dy r =
  { x0 = r.x0 + dx; y0 = r.y0 + dy; x1 = r.x1 + dx; y1 = r.y1 + dy }

let inflate d r =
  let x0 = r.x0 - d and x1 = r.x1 + d in
  let y0 = r.y0 - d and y1 = r.y1 + d in
  if x0 > x1 || y0 > y1 then
    (* collapse to the midpoint rather than producing an inverted box *)
    let cx = (r.x0 + r.x1) / 2 and cy = (r.y0 + r.y1) / 2 in
    { x0 = cx; y0 = cy; x1 = cx; y1 = cy }
  else { x0; y0; x1; y1 }

let contains r ~x ~y = x >= r.x0 && x <= r.x1 && y >= r.y0 && y <= r.y1

let contains_rect ~outer ~inner =
  inner.x0 >= outer.x0 && inner.x1 <= outer.x1
  && inner.y0 >= outer.y0 && inner.y1 <= outer.y1

let intersects a b =
  a.x0 < b.x1 && b.x0 < a.x1 && a.y0 < b.y1 && b.y0 < a.y1

let inter a b =
  if not (intersects a b) then None
  else
    Some
      { x0 = max a.x0 b.x0; y0 = max a.y0 b.y0;
        x1 = min a.x1 b.x1; y1 = min a.y1 b.y1 }

let union_bbox a b =
  if is_empty a then b
  else if is_empty b then a
  else
    { x0 = min a.x0 b.x0; y0 = min a.y0 b.y0;
      x1 = max a.x1 b.x1; y1 = max a.y1 b.y1 }

let bbox_of_list = function
  | [] -> empty
  | r :: rs -> List.fold_left union_bbox r rs

let equal (a : t) (b : t) = a = b
let compare = Stdlib.compare
let pp ppf r = Format.fprintf ppf "[%d,%d..%d,%d]" r.x0 r.y0 r.x1 r.y1
let to_string r = Format.asprintf "%a" pp r
