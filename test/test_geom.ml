(* Geometry kernel tests: rectangles, regions (exact union area),
   complement tiling, and segment clipping. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let rect_arb =
  QCheck.make
    ~print:(fun r -> Geom.Rect.to_string r)
    QCheck.Gen.(
      let* x = int_range (-30) 30 in
      let* y = int_range (-30) 30 in
      let* w = int_range 0 20 in
      let* h = int_range 0 20 in
      return (Geom.Rect.of_size ~x ~y ~w ~h))

let rects_arb = QCheck.list_of_size (QCheck.Gen.int_range 0 12) rect_arb

let basic_rect () =
  let r = Geom.Rect.of_size ~x:2 ~y:3 ~w:5 ~h:4 in
  check "width" 5 (Geom.Rect.width r);
  check "height" 4 (Geom.Rect.height r);
  check "area" 20 (Geom.Rect.area r);
  checkb "contains corner" true (Geom.Rect.contains r ~x:2 ~y:3);
  checkb "contains far corner" true (Geom.Rect.contains r ~x:7 ~y:7);
  checkb "outside" false (Geom.Rect.contains r ~x:8 ~y:3)

let make_normalizes () =
  let r = Geom.Rect.make ~x0:5 ~y0:7 ~x1:1 ~y1:2 in
  check "x0" 1 r.Geom.Rect.x0;
  check "y1" 7 r.Geom.Rect.y1

let of_size_negative () =
  Alcotest.check_raises "negative width" (Invalid_argument "Rect.of_size: negative size")
    (fun () -> ignore (Geom.Rect.of_size ~x:0 ~y:0 ~w:(-1) ~h:2))

let empty_rect () =
  checkb "empty is empty" true (Geom.Rect.is_empty Geom.Rect.empty);
  checkb "degenerate is empty" true
    (Geom.Rect.is_empty (Geom.Rect.of_size ~x:3 ~y:3 ~w:0 ~h:5));
  check "empty area" 0 (Geom.Rect.area Geom.Rect.empty)

let translate_rect () =
  let r = Geom.Rect.of_size ~x:1 ~y:1 ~w:2 ~h:2 in
  let t = Geom.Rect.translate ~dx:3 ~dy:(-1) r in
  check "x0" 4 t.Geom.Rect.x0;
  check "y0" 0 t.Geom.Rect.y0;
  check "area preserved" (Geom.Rect.area r) (Geom.Rect.area t)

let inflate_rect () =
  let r = Geom.Rect.of_size ~x:2 ~y:2 ~w:4 ~h:4 in
  check "inflate grows" 36 (Geom.Rect.area (Geom.Rect.inflate 1 r));
  check "deflate shrinks" 4 (Geom.Rect.area (Geom.Rect.inflate (-1) r));
  checkb "over-deflate collapses" true
    (Geom.Rect.is_empty (Geom.Rect.inflate (-3) r))

let intersect_rect () =
  let a = Geom.Rect.of_size ~x:0 ~y:0 ~w:4 ~h:4 in
  let b = Geom.Rect.of_size ~x:2 ~y:2 ~w:4 ~h:4 in
  let c = Geom.Rect.of_size ~x:4 ~y:0 ~w:2 ~h:2 in
  checkb "overlap" true (Geom.Rect.intersects a b);
  checkb "touching edge is not overlap" false (Geom.Rect.intersects a c);
  (match Geom.Rect.inter a b with
  | Some i -> check "intersection area" 4 (Geom.Rect.area i)
  | None -> Alcotest.fail "expected intersection");
  checkb "inter none" true (Geom.Rect.inter a c = None)

let union_bbox () =
  let a = Geom.Rect.of_size ~x:0 ~y:0 ~w:1 ~h:1 in
  let b = Geom.Rect.of_size ~x:5 ~y:5 ~w:1 ~h:1 in
  let u = Geom.Rect.union_bbox a b in
  check "bbox area" 36 (Geom.Rect.area u);
  check "bbox of empty list" 0 (Geom.Rect.area (Geom.Rect.bbox_of_list []))

let region_disjoint_area () =
  let rg =
    Geom.Region.of_rects
      [ Geom.Rect.of_size ~x:0 ~y:0 ~w:2 ~h:2;
        Geom.Rect.of_size ~x:5 ~y:5 ~w:3 ~h:1 ]
  in
  check "disjoint union" 7 (Geom.Region.area rg)

let region_overlap_area () =
  let rg =
    Geom.Region.of_rects
      [ Geom.Rect.of_size ~x:0 ~y:0 ~w:4 ~h:4;
        Geom.Rect.of_size ~x:2 ~y:2 ~w:4 ~h:4 ]
  in
  check "overlap counted once" 28 (Geom.Region.area rg)

let region_nested_area () =
  let rg =
    Geom.Region.of_rects
      [ Geom.Rect.of_size ~x:0 ~y:0 ~w:6 ~h:6;
        Geom.Rect.of_size ~x:1 ~y:1 ~w:2 ~h:2 ]
  in
  check "nested counted once" 36 (Geom.Region.area rg)

let region_empty () =
  check "empty region area" 0 (Geom.Region.area Geom.Region.empty);
  checkb "empty region is empty" true (Geom.Region.is_empty Geom.Region.empty);
  checkb "degenerate rect dropped" true
    (Geom.Region.is_empty
       (Geom.Region.of_rect (Geom.Rect.of_size ~x:1 ~y:1 ~w:0 ~h:3)))

let rect_pair_arb = QCheck.pair rect_arb rect_arb

let inter_commutative =
  QCheck.Test.make ~name:"rect intersection commutes" ~count:500 rect_pair_arb
    (fun (a, b) ->
      match (Geom.Rect.inter a b, Geom.Rect.inter b a) with
      | Some x, Some y -> Geom.Rect.equal x y
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let inter_contained_in_both =
  QCheck.Test.make
    ~name:"rect intersection is contained in both operands" ~count:500
    rect_pair_arb
    (fun (a, b) ->
      match Geom.Rect.inter a b with
      | Some r ->
        Geom.Rect.intersects a b
        && Geom.Rect.contains_rect ~outer:a ~inner:r
        && Geom.Rect.contains_rect ~outer:b ~inner:r
      | None -> not (Geom.Rect.intersects a b))

let contained_rect_inter_is_inner =
  QCheck.Test.make
    ~name:"containment: inner rect intersects to itself" ~count:500
    rect_pair_arb
    (fun (a, b) ->
      QCheck.assume
        (Geom.Rect.contains_rect ~outer:a ~inner:b
        && not (Geom.Rect.is_empty b));
      match Geom.Rect.inter a b with
      | Some r -> Geom.Rect.equal r b
      | None -> false)

(* A box and a segment whose endpoints are fractional, integer or exactly
   on the box's edges, where the Liang-Barsky max/min ties decide the
   interval; one segment in four is horizontal, vertical or zero-length. *)
let segment_arb =
  QCheck.make
    ~print:(fun (s, r) ->
      Format.asprintf "%a vs %s" Geom.Segment.pp s (Geom.Rect.to_string r))
    QCheck.Gen.(
      let* r = QCheck.gen rect_arb in
      let coord lo hi =
        oneof
          [
            float_range (-40.) 40.;
            map float_of_int (int_range (-40) 40);
            oneofl [ float_of_int lo; float_of_int hi ];
          ]
      in
      let x = coord r.Geom.Rect.x0 r.Geom.Rect.x1 in
      let y = coord r.Geom.Rect.y0 r.Geom.Rect.y1 in
      let* px = x in
      let* py = y in
      let* qx = x in
      let* qy = y in
      let* shape = int_range 0 7 in
      let qx, qy =
        match shape with
        | 0 -> (qx, py)
        | 1 -> (px, qy)
        | 2 -> (px, py)
        | _ -> (qx, qy)
      in
      return (Geom.Segment.make (Geom.Vec.v px py) (Geom.Vec.v qx qy), r))

let clip_stays_within_bounds =
  QCheck.Test.make
    ~name:"segment clipping stays within the rect bounds" ~count:500
    segment_arb
    (fun (s, r) ->
      let x0 = float_of_int r.Geom.Rect.x0 and y0 = float_of_int r.Geom.Rect.y0 in
      let x1 = float_of_int r.Geom.Rect.x1 and y1 = float_of_int r.Geom.Rect.y1 in
      match Geom.Segment.clip_to_rect_f s ~x0 ~y0 ~x1 ~y1 with
      | None -> true
      | Some (t0, t1) ->
        let inside t =
          let p = Geom.Segment.point_at s t in
          p.Geom.Vec.x >= x0 -. 1e-6
          && p.Geom.Vec.x <= x1 +. 1e-6
          && p.Geom.Vec.y >= y0 -. 1e-6
          && p.Geom.Vec.y <= y1 +. 1e-6
        in
        0. <= t0 && t0 <= t1 && t1 <= 1. && inside t0 && inside t1
        && inside ((t0 +. t1) /. 2.))

let region_area_union_bound =
  QCheck.Test.make ~name:"region union area <= sum of areas" ~count:200
    rects_arb (fun rects ->
      let sum = List.fold_left (fun a r -> a + Geom.Rect.area r) 0 rects in
      Geom.Region.area (Geom.Region.of_rects rects) <= sum)

let region_area_max_bound =
  QCheck.Test.make ~name:"region area >= max member area" ~count:200 rects_arb
    (fun rects ->
      let m = List.fold_left (fun a r -> max a (Geom.Rect.area r)) 0 rects in
      Geom.Region.area (Geom.Region.of_rects rects) >= m)

let region_translate_invariant =
  QCheck.Test.make ~name:"region area is translation invariant" ~count:200
    rects_arb (fun rects ->
      let rg = Geom.Region.of_rects rects in
      Geom.Region.area rg
      = Geom.Region.area (Geom.Region.translate ~dx:7 ~dy:(-3) rg))

let complement_partitions =
  QCheck.Test.make ~name:"complement partitions the bounding box" ~count:200
    rects_arb (fun rects ->
      let rg = Geom.Region.of_rects rects in
      let bbox = Geom.Region.bbox rg in
      let comp = Geom.Region.complement_rects ~within:bbox rg in
      Geom.Region.area rg + Geom.Region.area (Geom.Region.of_rects comp)
      = Geom.Rect.area bbox)

let complement_disjoint =
  QCheck.Test.make ~name:"complement does not overlap the region" ~count:200
    rects_arb (fun rects ->
      let rg = Geom.Region.of_rects rects in
      let bbox = Geom.Region.bbox rg in
      let comp = Geom.Region.complement_rects ~within:bbox rg in
      List.for_all (fun c -> not (Geom.Region.intersects_rect rg c)) comp)

let vec_ops () =
  let a = Geom.Vec.v 3. 4. in
  Alcotest.(check (float 1e-9)) "norm" 5. (Geom.Vec.norm a);
  let u = Geom.Vec.normalize a in
  Alcotest.(check (float 1e-9)) "unit norm" 1. (Geom.Vec.norm u);
  Alcotest.(check (float 1e-9)) "dot" 25. (Geom.Vec.dot a a);
  Alcotest.check_raises "normalize zero"
    (Invalid_argument "Vec.normalize: zero vector") (fun () ->
      ignore (Geom.Vec.normalize Geom.Vec.zero))

let segment_band_clip () =
  let s = Geom.Segment.make (Geom.Vec.v 0. 0.) (Geom.Vec.v 10. 0.) in
  (match Geom.Segment.clip_to_vertical_band s ~xlo:2. ~xhi:4. with
  | Some (t0, t1) ->
    Alcotest.(check (float 1e-9)) "t0" 0.2 t0;
    Alcotest.(check (float 1e-9)) "t1" 0.4 t1
  | None -> Alcotest.fail "expected clip");
  checkb "outside band" true
    (Geom.Segment.clip_to_vertical_band s ~xlo:11. ~xhi:12. = None)

let segment_rect_clip () =
  let s = Geom.Segment.make (Geom.Vec.v (-1.) 1.) (Geom.Vec.v 5. 1.) in
  (match Geom.Segment.clip_to_rect_f s ~x0:0. ~y0:0. ~x1:2. ~y1:2. with
  | Some (t0, t1) ->
    checkb "interval ordered" true (t0 < t1);
    let p = Geom.Segment.point_at s t0 in
    Alcotest.(check (float 1e-9)) "entry x" 0. p.Geom.Vec.x
  | None -> Alcotest.fail "expected rect clip");
  let miss = Geom.Segment.make (Geom.Vec.v (-1.) 5.) (Geom.Vec.v 5. 5.) in
  checkb "miss above" true
    (Geom.Segment.clip_to_rect_f miss ~x0:0. ~y0:0. ~x1:2. ~y1:2. = None)

let segment_clip_inside_points =
  QCheck.Test.make ~name:"clipped midpoint lies inside the box" ~count:200
    QCheck.(
      quad (float_bound_exclusive 20.) (float_bound_exclusive 20.)
        (float_bound_exclusive 20.) (float_bound_exclusive 20.))
    (fun (ax, ay, bx, by) ->
      let s = Geom.Segment.make (Geom.Vec.v ax ay) (Geom.Vec.v bx by) in
      match Geom.Segment.clip_to_rect_f s ~x0:5. ~y0:5. ~x1:15. ~y1:15. with
      | None -> true
      | Some (t0, t1) ->
        let p = Geom.Segment.point_at s ((t0 +. t1) /. 2.) in
        p.Geom.Vec.x >= 5. -. 1e-6
        && p.Geom.Vec.x <= 15. +. 1e-6
        && p.Geom.Vec.y >= 5. -. 1e-6
        && p.Geom.Vec.y <= 15. +. 1e-6)

(* The option-threaded Liang-Barsky that clip_to_rect_f computed before it
   stopped allocating per half-plane: the reference its intervals must
   equal bit for bit.  Stdlib's polymorphic max/min return their first
   argument on a tie, which decides the sign of a zero t0. *)
let clip_reference (s : Geom.Segment.t) ~x0 ~y0 ~x1 ~y1 =
  let p0 = s.Geom.Segment.p and p1 = s.Geom.Segment.q in
  let dx = p1.Geom.Vec.x -. p0.Geom.Vec.x
  and dy = p1.Geom.Vec.y -. p0.Geom.Vec.y in
  let update (t0, t1) p q =
    if Float.abs p < 1e-12 then if q < 0. then None else Some (t0, t1)
    else
      let r = q /. p in
      if p < 0. then if r > t1 then None else Some (max t0 r, t1)
      else if r < t0 then None
      else Some (t0, min t1 r)
  in
  let ( >>= ) o f = match o with None -> None | Some v -> f v in
  Some (0., 1.)
  >>= fun i -> update i (-.dx) (p0.Geom.Vec.x -. x0)
  >>= fun i -> update i dx (x1 -. p0.Geom.Vec.x)
  >>= fun i -> update i (-.dy) (p0.Geom.Vec.y -. y0)
  >>= fun i -> update i dy (y1 -. p0.Geom.Vec.y)
  >>= fun (t0, t1) -> if t1 <= t0 then None else Some (t0, t1)

let clip_matches_reference =
  QCheck.Test.make
    ~name:"clip_to_rect_f equals the Liang-Barsky reference bit for bit"
    ~count:3000 segment_arb (fun (s, r) ->
      let x0 = float_of_int r.Geom.Rect.x0 and y0 = float_of_int r.Geom.Rect.y0 in
      let x1 = float_of_int r.Geom.Rect.x1 and y1 = float_of_int r.Geom.Rect.y1 in
      let bits = Int64.bits_of_float in
      match
        ( Geom.Segment.clip_to_rect_f s ~x0 ~y0 ~x1 ~y1,
          clip_reference s ~x0 ~y0 ~x1 ~y1 )
      with
      | None, None -> true
      | Some (a0, a1), Some (b0, b1) ->
        Int64.equal (bits a0) (bits b0) && Int64.equal (bits a1) (bits b1)
      | _ -> false)

(* --- spatial index: behavioral invisibility vs the naive scans --- *)

(* Shape soups: up to 2000 rectangles on rect_arb's field or spread over
   one ten times wider, indexed at pitch 1-3, 7 or the automatic pitch.
   Dense soups on a fine pitch put many ids in a bucket and give a query
   a candidate range hundreds of bytes wide.  Zero-area rectangles come in
   because the rect_arb size range starts at 0. *)
let soup_arb =
  QCheck.make
    ~print:(fun (bucket, soup) ->
      Printf.sprintf "bucket %s: %s"
        (match bucket with Some b -> string_of_int b | None -> "auto")
        (String.concat " " (List.map Geom.Rect.to_string soup)))
    QCheck.Gen.(
      let* bucket = oneofl [ Some 1; Some 2; Some 3; Some 7; None ] in
      let* spread = oneofl [ 1; 10 ] in
      let* n = frequency [ (1, int_range 0 60); (1, int_range 0 2000) ] in
      let* soup =
        list_repeat n
          (let* r = QCheck.gen rect_arb in
           return
             (Geom.Rect.of_size
                ~x:(spread * r.Geom.Rect.x0)
                ~y:(spread * r.Geom.Rect.y0)
                ~w:(Geom.Rect.width r) ~h:(Geom.Rect.height r)))
      in
      return (bucket, soup))

let indexed (bucket, soup) =
  Geom.Index.build ?bucket (List.mapi (fun i r -> (r, i)) soup)

(* Track coordinates, fractional or on the integer grid, inside rect_arb's
   field or crossing the whole extent of the wide one. *)
let coord_arb =
  QCheck.make ~print:string_of_float
    QCheck.Gen.(
      let* lim = oneofl [ 60; 340 ] in
      oneof
        [
          float_range (-.float_of_int lim) (float_of_int lim);
          map float_of_int (int_range (-lim) lim);
        ])

let index_rect_matches_naive =
  QCheck.Test.make
    ~name:"Index.query_rect equals naive scan (same order)" ~count:300
    (QCheck.pair soup_arb rect_arb)
    (fun ((_, soup) as s, w) ->
      let items = List.mapi (fun i r -> (r, i)) soup in
      Geom.Index.query_rect (indexed s) w = Geom.Index.naive_rect items w)

let index_rect_matches_naive_default_pitch =
  QCheck.Test.make
    ~name:"Index.query_rect equals naive scan (auto pitch)" ~count:300
    (QCheck.pair soup_arb rect_arb)
    (fun ((_, soup), w) ->
      let items = List.mapi (fun i r -> (r, i)) soup in
      Geom.Index.query_rect (Geom.Index.build items) w
      = Geom.Index.naive_rect items w)

let index_segment_matches_naive =
  QCheck.Test.make
    ~name:"Index.query_segment equals naive scan (same order)" ~count:300
    (QCheck.pair soup_arb (QCheck.quad coord_arb coord_arb coord_arb coord_arb))
    (fun (((_, soup) as soup_b), (ax, ay, bx, by)) ->
      let items = List.mapi (fun i r -> (r, i)) soup in
      let s = Geom.Segment.make (Geom.Vec.v ax ay) (Geom.Vec.v bx by) in
      Geom.Index.query_segment (indexed soup_b) s
      = Geom.Index.naive_segment items s)

let index_vertical_segment_matches_naive =
  QCheck.Test.make
    ~name:"Index.query_segment equals naive scan (vertical tracks)"
    ~count:300
    (QCheck.pair soup_arb (QCheck.triple coord_arb coord_arb coord_arb))
    (fun (((_, soup) as soup_b), (x, ay, by)) ->
      let items = List.mapi (fun i r -> (r, i)) soup in
      let s = Geom.Segment.make (Geom.Vec.v x ay) (Geom.Vec.v x by) in
      Geom.Index.query_segment (indexed soup_b) s
      = Geom.Index.naive_segment items s)

let index_bucket_boundaries () =
  (* rects and windows sitting exactly on pitch multiples: closed
     intersection means boundary contact counts, and bucket assignment
     must not lose straddlers *)
  let r a b = Geom.Rect.make ~x0:a ~y0:a ~x1:b ~y1:b in
  let soup =
    [ r 0 4; r 4 8; r 8 8 (* zero-area on a bucket corner *); r (-4) 0 ]
  in
  let items = List.mapi (fun i x -> (x, i)) soup in
  let t = Geom.Index.build ~bucket:4 items in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "window %s" (Geom.Rect.to_string w))
        true
        (Geom.Index.query_rect t w = Geom.Index.naive_rect items w))
    [ r 4 4; r 0 8; r 8 8; r (-4) (-4); r (-100) 100; r 9 20 ];
  Alcotest.(check int) "length" 4 (Geom.Index.length t);
  Alcotest.(check int) "bucket" 4 (Geom.Index.bucket t);
  Alcotest.(check bool) "items round-trip" true (Geom.Index.items t = items)

let index_empty () =
  let t = Geom.Index.build [] in
  Alcotest.(check int) "empty length" 0 (Geom.Index.length t);
  Alcotest.(check bool) "empty rect query" true
    (Geom.Index.query_rect t (Geom.Rect.of_size ~x:0 ~y:0 ~w:5 ~h:5) = []);
  Alcotest.(check bool) "empty segment query" true
    (Geom.Index.query_segment t
       (Geom.Segment.make (Geom.Vec.v 0. 0.) (Geom.Vec.v 5. 5.))
    = []);
  Alcotest.(check bool) "bad bucket rejected" true
    (try
       ignore (Geom.Index.build ~bucket:0 []);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "rect basics" `Quick basic_rect;
    Alcotest.test_case "make normalizes corners" `Quick make_normalizes;
    Alcotest.test_case "of_size rejects negative" `Quick of_size_negative;
    Alcotest.test_case "empty rect" `Quick empty_rect;
    Alcotest.test_case "translate" `Quick translate_rect;
    Alcotest.test_case "inflate/deflate" `Quick inflate_rect;
    Alcotest.test_case "intersection" `Quick intersect_rect;
    Alcotest.test_case "union bbox" `Quick union_bbox;
    Alcotest.test_case "region disjoint area" `Quick region_disjoint_area;
    Alcotest.test_case "region overlap area" `Quick region_overlap_area;
    Alcotest.test_case "region nested area" `Quick region_nested_area;
    Alcotest.test_case "region empty" `Quick region_empty;
    Alcotest.test_case "vec ops" `Quick vec_ops;
    Alcotest.test_case "segment band clip" `Quick segment_band_clip;
    Alcotest.test_case "segment rect clip" `Quick segment_rect_clip;
    QCheck_alcotest.to_alcotest inter_commutative;
    QCheck_alcotest.to_alcotest inter_contained_in_both;
    QCheck_alcotest.to_alcotest contained_rect_inter_is_inner;
    QCheck_alcotest.to_alcotest clip_stays_within_bounds;
    QCheck_alcotest.to_alcotest region_area_union_bound;
    QCheck_alcotest.to_alcotest region_area_max_bound;
    QCheck_alcotest.to_alcotest region_translate_invariant;
    QCheck_alcotest.to_alcotest complement_partitions;
    QCheck_alcotest.to_alcotest complement_disjoint;
    QCheck_alcotest.to_alcotest segment_clip_inside_points;
    QCheck_alcotest.to_alcotest clip_matches_reference;
    Alcotest.test_case "index bucket boundaries" `Quick
      index_bucket_boundaries;
    Alcotest.test_case "index empty" `Quick index_empty;
    QCheck_alcotest.to_alcotest index_rect_matches_naive;
    QCheck_alcotest.to_alcotest index_rect_matches_naive_default_pitch;
    QCheck_alcotest.to_alcotest index_segment_matches_naive;
    QCheck_alcotest.to_alcotest index_vertical_segment_matches_naive;
  ]
