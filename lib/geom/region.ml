type t = Rect.t list

let empty = []
let of_rect r = if Rect.is_empty r then [] else [ r ]
let of_rects rs = List.filter (fun r -> not (Rect.is_empty r)) rs
let rects t = t
let union a b = a @ b
let translate ~dx ~dy t = List.map (Rect.translate ~dx ~dy) t
let is_empty t = t = []

(* Exact union area: sweep the distinct x-coordinates; in each vertical slab
   merge the y-intervals of the rectangles spanning it. *)
let area t =
  match t with
  | [] -> 0
  | _ ->
    let xs =
      List.concat_map (fun (r : Rect.t) -> [ r.Rect.x0; r.Rect.x1 ]) t
      |> List.sort_uniq Stdlib.compare
    in
    let slab_area x0 x1 =
      let spans =
        List.filter_map
          (fun (r : Rect.t) ->
            if r.Rect.x0 <= x0 && r.Rect.x1 >= x1 then
              Some (r.Rect.y0, r.Rect.y1)
            else None)
          t
        |> List.sort Stdlib.compare
      in
      let rec covered acc cur = function
        | [] -> (match cur with None -> acc | Some (a, b) -> acc + (b - a))
        | (y0, y1) :: rest -> (
          match cur with
          | None -> covered acc (Some (y0, y1)) rest
          | Some (a, b) ->
            if y0 > b then covered (acc + (b - a)) (Some (y0, y1)) rest
            else covered acc (Some (a, max b y1)) rest)
      in
      (x1 - x0) * covered 0 None spans
    in
    let rec sweep acc = function
      | x0 :: (x1 :: _ as rest) -> sweep (acc + slab_area x0 x1) rest
      | [ _ ] | [] -> acc
    in
    sweep 0 xs

let bbox t = Rect.bbox_of_list t
let intersects_rect t r = List.exists (fun m -> Rect.intersects m r) t

let complement_rects ~within t =
  if Rect.is_empty within then []
  else begin
    let bounded lo hi vs =
      lo :: hi :: List.filter (fun v -> v > lo && v < hi) vs
      |> List.sort_uniq Stdlib.compare
    in
    let xs =
      bounded within.Rect.x0 within.Rect.x1
        (List.concat_map (fun (r : Rect.t) -> [ r.Rect.x0; r.Rect.x1 ]) t)
    and ys =
      bounded within.Rect.y0 within.Rect.y1
        (List.concat_map (fun (r : Rect.t) -> [ r.Rect.y0; r.Rect.y1 ]) t)
    in
    let rec pairs = function
      | a :: (b :: _ as rest) -> (a, b) :: pairs rest
      | [ _ ] | [] -> []
    in
    let covered x0 x1 y0 y1 =
      List.exists
        (fun (r : Rect.t) ->
          r.Rect.x0 <= x0 && r.Rect.x1 >= x1 && r.Rect.y0 <= y0
          && r.Rect.y1 >= y1)
        t
    in
    List.concat_map
      (fun (x0, x1) ->
        List.filter_map
          (fun (y0, y1) ->
            if covered x0 x1 y0 y1 then None
            else Some (Rect.make ~x0 ~y0 ~x1 ~y1))
          (pairs ys))
      (pairs xs)
  end

let pp ppf t =
  Format.fprintf ppf "@[<hov>{%a}@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Rect.pp)
    t
