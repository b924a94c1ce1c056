(* The grid is one CSR pair: bucket [b] holds the ids
   [ids.(starts.(b)) .. ids.(starts.(b + 1) - 1)], ascending. *)
type 'a t = {
  rects : Rect.t array;
  payloads : 'a array;
  ox : int;  (* grid origin: lower-left corner of the item bbox *)
  oy : int;
  pitch : int;  (* bucket edge length, >= 1 *)
  nx : int;
  ny : int;
  starts : int array;  (* nx * ny + 1 offsets into [ids] *)
  ids : int array;
}

let touches (a : Rect.t) (b : Rect.t) =
  (* closed intersection: shared boundary points count, so zero-area
     rectangles and exact abutments are query hits.  Callers with open
     semantics (e.g. overlap DRC) re-filter; a superset candidate list
     never changes their result. *)
  a.Rect.x0 <= b.Rect.x1 && b.Rect.x0 <= a.Rect.x1 && a.Rect.y0 <= b.Rect.y1
  && b.Rect.y0 <= a.Rect.y1

let naive_rect items w =
  List.filter (fun (r, _) -> touches r w) items

let clip (s : Segment.t) (r : Rect.t) =
  Segment.clip_to_rect_f s ~x0:(float_of_int r.Rect.x0)
    ~y0:(float_of_int r.Rect.y0) ~x1:(float_of_int r.Rect.x1)
    ~y1:(float_of_int r.Rect.y1)

let naive_segment items s =
  List.filter_map
    (fun (r, p) ->
      match clip s r with Some (t0, t1) -> Some (t0, t1, p) | None -> None)
    items

let default_pitch ~w ~h ~n =
  (* aim for ~1 item per bucket on a uniformly filled area; degenerate
     (zero-area) extents fall back to spreading the longer side *)
  let by_area =
    int_of_float (sqrt (float_of_int w *. float_of_int h /. float_of_int n))
  in
  if by_area >= 1 then by_area else Int.max 1 (Int.max w h / n)

let build ?bucket items =
  let n = List.length items in
  let rects, payloads =
    match items with
    | [] -> ([||], [||])
    | (r, p) :: _ -> (Array.make n r, Array.make n p)
  in
  let ox = ref max_int and oy = ref max_int in
  let x1 = ref min_int and y1 = ref min_int in
  List.iteri
    (fun i ((r : Rect.t), p) ->
      rects.(i) <- r;
      payloads.(i) <- p;
      ox := Int.min !ox r.Rect.x0;
      oy := Int.min !oy r.Rect.y0;
      x1 := Int.max !x1 r.Rect.x1;
      y1 := Int.max !y1 r.Rect.y1)
    items;
  let ox, oy, x1, y1 = if n = 0 then (0, 0, 0, 0) else (!ox, !oy, !x1, !y1) in
  let pitch =
    match bucket with
    | Some b when b >= 1 -> b
    | Some b ->
      invalid_arg (Printf.sprintf "Geom.Index.build: bucket %d < 1" b)
    | None -> default_pitch ~w:(x1 - ox) ~h:(y1 - oy) ~n:(Int.max 1 n)
  in
  let nx = ((x1 - ox) / pitch) + 1 and ny = ((y1 - oy) / pitch) + 1 in
  (* count each bucket's ids into starts.(b), turn the counts into
     running totals (the end of each bucket), then place ids from the
     last down, stepping each bucket's offset back to its start *)
  let starts = Array.make ((nx * ny) + 1) 0 in
  for id = 0 to n - 1 do
    let r = rects.(id) in
    for cy = (r.Rect.y0 - oy) / pitch to (r.Rect.y1 - oy) / pitch do
      for cx = (r.Rect.x0 - ox) / pitch to (r.Rect.x1 - ox) / pitch do
        let b = (cy * nx) + cx in
        starts.(b) <- starts.(b) + 1
      done
    done
  done;
  for b = 1 to nx * ny do
    starts.(b) <- starts.(b) + starts.(b - 1)
  done;
  let ids = Array.make starts.(nx * ny) 0 in
  for id = n - 1 downto 0 do
    let r = rects.(id) in
    for cy = (r.Rect.y0 - oy) / pitch to (r.Rect.y1 - oy) / pitch do
      for cx = (r.Rect.x0 - ox) / pitch to (r.Rect.x1 - ox) / pitch do
        let b = (cy * nx) + cx in
        starts.(b) <- starts.(b) - 1;
        ids.(starts.(b)) <- id
      done
    done
  done;
  { rects; payloads; ox; oy; pitch; nx; ny; starts; ids }

let length t = Array.length t.rects
let bucket t = t.pitch

let items t =
  Array.to_list (Array.map2 (fun r p -> (r, p)) t.rects t.payloads)

let bx t x = Int.min (t.nx - 1) (Int.max 0 ((x - t.ox) / t.pitch))
let by t y = Int.min (t.ny - 1) (Int.max 0 ((y - t.oy) / t.pitch))

(* The distinct ids of the buckets [visit] enumerates, folded by [keep]
   from the highest id down, so an answer consed by [keep] comes out in
   ascending insertion order.  [visit f] calls [f b] on each bucket the
   query touches; it runs twice, first to bound the candidate id range
   (a bucket's ids ascend, so its first and last bound it), then to mark
   the candidates in a bitset over that range.  The bitset belongs to the
   query, which keeps a built index safe to share read-only across
   domains. *)
let collect t visit keep =
  let lo = ref max_int and hi = ref (-1) in
  visit (fun b ->
      let s = t.starts.(b) and e = t.starts.(b + 1) in
      if s < e then begin
        lo := Int.min !lo t.ids.(s);
        hi := Int.max !hi t.ids.(e - 1)
      end);
  if !hi < 0 then []
  else begin
    let lo = !lo in
    let seen = Bytes.make (((!hi - lo) lsr 3) + 1) '\000' in
    visit (fun b ->
        for k = t.starts.(b) to t.starts.(b + 1) - 1 do
          let i = t.ids.(k) - lo in
          let byte = i lsr 3 in
          Bytes.set seen byte
            (Char.unsafe_chr
               (Char.code (Bytes.get seen byte) lor (1 lsl (i land 7))))
        done);
    let acc = ref [] in
    for byte = Bytes.length seen - 1 downto 0 do
      let m = Char.code (Bytes.get seen byte) in
      if m <> 0 then
        for bit = 7 downto 0 do
          if m land (1 lsl bit) <> 0 then
            acc := keep (lo + (byte lsl 3) + bit) !acc
        done
    done;
    !acc
  end

let query_rect t (w : Rect.t) =
  if Array.length t.rects = 0 then []
  else begin
    let cx0 = bx t w.Rect.x0 and cx1 = bx t w.Rect.x1 in
    let cy0 = by t w.Rect.y0 and cy1 = by t w.Rect.y1 in
    collect t
      (fun f ->
        for cy = cy0 to cy1 do
          for cx = cx0 to cx1 do
            f ((cy * t.nx) + cx)
          done
        done)
      (fun id acc ->
        let r = t.rects.(id) in
        if touches r w then (r, t.payloads.(id)) :: acc else acc)
  end

(* float coordinate -> bucket row/column, with clamping; the +-1 margins at
   use sites absorb floor/rounding at bucket boundaries *)
let bxf t x = bx t (int_of_float (Float.floor x))
let byf t y = by t (int_of_float (Float.floor y))

(* Stdlib's min/max and Segment's clamp, specialised to floats: the same
   results (ties and NaN pick as Stdlib does) without the polymorphic
   compare *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b
let[@inline] clamp01 t = if t < 0. then 0. else if t > 1. then 1. else t

let query_segment t (s : Segment.t) =
  if Array.length t.rects = 0 then []
  else begin
    let px = s.Segment.p.Vec.x and py = s.Segment.p.Vec.y in
    let qx = s.Segment.q.Vec.x and qy = s.Segment.q.Vec.y in
    let dx = qx -. px and dy = qy -. py in
    let cx0 = Int.max 0 (bxf t (fmin px qx) - 1)
    and cx1 = Int.min (t.nx - 1) (bxf t (fmax px qx) + 1) in
    let near_vertical = Float.abs dx < 1e-9 in
    (* the whole y-extent of the segment, used when the per-column band
       clip cannot resolve rows (near-vertical tracks) *)
    let full_y0 = byf t (fmin py qy) - 1 and full_y1 = byf t (fmax py qy) + 1 in
    let visit f =
      let rows cx cy0 cy1 =
        for cy = Int.max 0 cy0 to Int.min (t.ny - 1) cy1 do
          f ((cy * t.nx) + cx)
        done
      in
      for cx = cx0 to cx1 do
        if near_vertical then rows cx full_y0 full_y1
        else begin
          (* the column's x-band clip and the segment's points at its
             ends: the float operations of Segment.clip_to_vertical_band
             and Segment.point_at, unboxed *)
          let xl = float_of_int (t.ox + (cx * t.pitch)) in
          let xh = float_of_int (t.ox + ((cx + 1) * t.pitch)) in
          let ta = (xl -. px) /. dx and tb = (xh -. px) /. dx in
          let t0 = clamp01 (fmin ta tb) and t1 = clamp01 (fmax ta tb) in
          if not (t1 <= t0) then begin
            let ya = py +. (t0 *. dy) and yb = py +. (t1 *. dy) in
            rows cx (byf t (fmin ya yb) - 1) (byf t (fmax ya yb) + 1)
          end
        end
      done
    in
    collect t visit (fun id acc ->
        match clip s t.rects.(id) with
        | Some (t0, t1) -> (t0, t1, t.payloads.(id)) :: acc
        | None -> acc)
  end
