(* Scaled physical-flow throughput: generated array multipliers at 1k and
   10k instances through placement, GDS export, placement-level DRC,
   the die-level index build and CNT-track crossing queries on it, and
   coupling extraction — each
   pairwise pass timed both through Geom.Index and through the all-pairs
   naive scan it replaced, with the results asserted equal.  Die area and
   utilization of scheme 1 (rows) vs scheme 2 (shelves) ride along as
   extras.  Results land in BENCH_scale.json.

   SCALE_SIZES=1000 (comma-separated) overrides the instance-count
   targets — CI runs the 1k smoke only. *)

let ok r = Core.Diag.ok_exn r

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

let sizes () =
  match Sys.getenv_opt "SCALE_SIZES" with
  | None | Some "" -> [ 1000; 10000 ]
  | Some s ->
    String.split_on_char ',' s
    |> List.filter_map int_of_string_opt
    |> List.filter (fun n -> n > 0)

(* Smallest multiplier whose netlist reaches the target instance count. *)
let multiplier_for target =
  let rec search bits =
    let n = ok (Flow.Generate.multiplier ~bits) in
    if List.length n.Flow.Netlist_ir.instances >= target || bits >= 64 then n
    else search (bits + 1)
  in
  search 2

let outline (c : Flow.Placer.placed_cell) =
  ( c.Flow.Placer.inst.Flow.Netlist_ir.inst_name,
    Geom.Rect.of_size ~x:c.Flow.Placer.x ~y:c.Flow.Placer.y
      ~w:c.Flow.Placer.cell_width ~h:c.Flow.Placer.cell_height )

(* Every fabric rectangle of every placed cell, translated to die
   coordinates — the geometry a die-level CNT imperfection campaign
   queries. *)
let die_items ~lib ~scheme (p : Flow.Placer.t) =
  List.concat_map
    (fun (c : Flow.Placer.placed_cell) ->
      let e =
        Stdcell.Library.find_exn lib
          ~name:c.Flow.Placer.inst.Flow.Netlist_ir.cell
          ~drive:c.Flow.Placer.inst.Flow.Netlist_ir.drive
      in
      let cell =
        match scheme with
        | `S1 -> e.Stdcell.Library.scheme1
        | `S2 -> e.Stdcell.Library.scheme2
      in
      List.map
        (fun (pl : Layout.Fabric.placed) ->
          ( Geom.Rect.translate ~dx:c.Flow.Placer.x ~dy:c.Flow.Placer.y
              pl.Layout.Fabric.rect,
            pl.Layout.Fabric.elem ))
        (cell.Layout.Cell.pun.Layout.Fabric.items
        @ cell.Layout.Cell.pdn.Layout.Fabric.items))
    p.Flow.Placer.cells

(* Deterministic LCG track soup across the die (no global Random). *)
let tracks ~die_w ~die_h count =
  let state = ref 0x2545F4914F6CDD1D in
  (* 48-bit LCG (drand48 constants) — plenty for a coordinate soup *)
  let next bound =
    state := ((!state * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    (!state lsr 16) mod max 1 bound
  in
  List.init count (fun _ ->
      let x0 = float_of_int (next die_w) and y0 = float_of_int (next die_h) in
      let x1 = float_of_int (next die_w) and y1 = float_of_int (next die_h) in
      Geom.Segment.make { Geom.Vec.x = x0; y = y0 } { Geom.Vec.x = x1; y = y1 })

let speedup ~naive_ms ~index_ms = naive_ms /. Float.max 1e-6 index_ms

(* BOUNDARY and BGNSTR records of a GDSII stream, counted off its record
   framing alone. *)
let gds_census bytes =
  let code t = Gds.Record.type_code t in
  let rec walk pos boundaries structures =
    if pos >= String.length bytes then (boundaries, structures)
    else
      let len = (Char.code bytes.[pos] lsl 8) lor Char.code bytes.[pos + 1] in
      if len < 4 then failwith "gds_census: record shorter than its header";
      let rtype = Char.code bytes.[pos + 2] in
      if rtype = code Gds.Record.Boundary then
        walk (pos + len) (boundaries + 1) structures
      else if rtype = code Gds.Record.Bgnstr then
        walk (pos + len) boundaries (structures + 1)
      else walk (pos + len) boundaries structures
  in
  walk 0 0 0

(* Every row keeps the best of [runs] runs of its pass: at 1k instances
   a pass takes milliseconds, and single-shot rows flapped across the
   ratchet's 15% floor on a shared host.  Five flapped least of 3, 5, 7
   and 9 in ratchet runs measured on a shared 2-core host. *)
let runs = 5

let best f =
  let results = List.init runs (fun _ -> time f) in
  List.fold_left
    (fun (b, t) (b', t') -> if t' < t then (b', t') else (b, t))
    (List.hd results) (List.tl results)

let gds_export ~lib ~scheme ~name p =
  best (fun () -> ok (Flow.Gds_export.placement ~lib ~scheme ~name p))

let bench_size ~lib target =
  let n = multiplier_for target in
  let cells = List.length n.Flow.Netlist_ir.instances in
  let slug = Printf.sprintf "scale.%s" n.Flow.Netlist_ir.design in
  Printf.printf "\n-- %s: %d instances (target %d) --\n"
    n.Flow.Netlist_ir.design cells target;
  let fcells = float_of_int cells in

  (* placement, both schemes *)
  let p1, t_place1 = best (fun () -> ok (Flow.Placer.rows ~lib n)) in
  let p2, t_place2 = best (fun () -> ok (Flow.Placer.shelves ~lib n)) in
  let wl1, t_wl = time (fun () -> Flow.Placer.wirelength_estimate p1 n) in
  Printf.printf
    "  place: rows %.1f ms, shelves %.1f ms; HPWL %d (%.1f ms)\n"
    t_place1 t_place2 wl1 t_wl;
  Printf.printf
    "  die area: scheme1 %d, scheme2 %d lambda^2 (util %.2f vs %.2f)\n"
    (Flow.Placer.die_area p1) (Flow.Placer.die_area p2)
    (Flow.Placer.utilization p1) (Flow.Placer.utilization p2);

  (* placement-level DRC: index vs all-pairs *)
  let outlines = List.map outline p1.Flow.Placer.cells in
  let v_idx, t_drc_idx =
    best (fun () -> Layout.Drc.check_outlines outlines)
  in
  let v_nav, t_drc_nav =
    best (fun () -> Layout.Drc.check_outlines_naive outlines)
  in
  assert (v_idx = v_nav);
  Printf.printf "  outline DRC: index %.1f ms, naive %.1f ms (%.1fx), %d violations\n"
    t_drc_idx t_drc_nav
    (speedup ~naive_ms:t_drc_nav ~index_ms:t_drc_idx)
    (List.length v_idx);

  (* die-level crossing queries: index vs naive segment clipping *)
  let items = die_items ~lib ~scheme:`S1 p1 in
  let nrects = float_of_int (List.length items) in
  let index, t_build = best (fun () -> Geom.Index.build items) in
  let soup = tracks ~die_w:p1.Flow.Placer.die_width
      ~die_h:p1.Flow.Placer.die_height 50 in
  let hits_idx, t_seg_idx =
    best (fun () -> List.map (Geom.Index.query_segment index) soup)
  in
  let hits_nav, t_seg_nav =
    best (fun () -> List.map (Geom.Index.naive_segment items) soup)
  in
  assert (hits_idx = hits_nav);
  Printf.printf
    "  crossing: %d fabric rects, 50 tracks: index %.1f ms (+%.1f build), \
     naive %.1f ms (%.1fx)\n"
    (List.length items) t_seg_idx t_build t_seg_nav
    (speedup ~naive_ms:t_seg_nav ~index_ms:t_seg_idx);

  (* coupling extraction: index vs all-pairs *)
  let c_idx, t_cpl_idx =
    best (fun () -> Extract.Extractor.couplings outlines)
  in
  let c_nav, t_cpl_nav =
    best (fun () -> Extract.Extractor.couplings_naive outlines)
  in
  assert (c_idx = c_nav);
  Printf.printf "  couplings: index %.1f ms, naive %.1f ms (%.1fx), %d pairs\n"
    t_cpl_idx t_cpl_nav
    (speedup ~naive_ms:t_cpl_nav ~index_ms:t_cpl_idx)
    (List.length c_idx);

  (* GDS export, both schemes; timed last, so that the passes above run
     in the heap state they ran in before the export rows existed *)
  let design = n.Flow.Netlist_ir.design in
  let g1, t_gds1 = gds_export ~lib ~scheme:`S1 ~name:design p1 in
  let g2, t_gds2 = gds_export ~lib ~scheme:`S2 ~name:design p2 in
  let mb_per_s bytes ms =
    float_of_int (String.length bytes) /. 1e6 /. Float.max 1e-9 (ms /. 1000.)
  in
  let gds_entry scheme bytes ms =
    let boundaries, structures = gds_census bytes in
    Bench_json.entry
      ~name:(slug ^ ".gds_export." ^ scheme) ~wall_ms:ms
      ~throughput:(mb_per_s bytes ms)
      ~extras:
        [
          ("bytes", float_of_int (String.length bytes));
          ("boundaries", float_of_int boundaries);
          ("structures", float_of_int structures);
        ]
      ()
  in
  Printf.printf
    "  gds export: s1 %.1f ms (%.0f MB/s), s2 %.1f ms (%.0f MB/s), %d bytes\n"
    t_gds1 (mb_per_s g1 t_gds1) t_gds2 (mb_per_s g2 t_gds2)
    (String.length g1);

  [
    Bench_json.entry
      ~name:(slug ^ ".place.s1") ~wall_ms:t_place1
      ~throughput:(fcells /. Float.max 1e-9 (t_place1 /. 1000.))
      ~extras:
        [
          ("cells", fcells);
          ("die_area", float_of_int (Flow.Placer.die_area p1));
          ("utilization", Flow.Placer.utilization p1);
          ("wirelength", float_of_int wl1);
        ]
      ();
    Bench_json.entry
      ~name:(slug ^ ".place.s2") ~wall_ms:t_place2
      ~throughput:(fcells /. Float.max 1e-9 (t_place2 /. 1000.))
      ~extras:
        [
          ("cells", fcells);
          ("die_area", float_of_int (Flow.Placer.die_area p2));
          ("utilization", Flow.Placer.utilization p2);
          ("s2_area_over_s1",
           float_of_int (Flow.Placer.die_area p2)
           /. Float.max 1. (float_of_int (Flow.Placer.die_area p1)));
        ]
      ();
    Bench_json.entry
      ~name:(slug ^ ".drc_outlines.index") ~wall_ms:t_drc_idx
      ~throughput:(fcells /. Float.max 1e-9 (t_drc_idx /. 1000.))
      ~extras:
        [
          ("cells", fcells);
          ("violations", float_of_int (List.length v_idx));
          ("speedup_vs_naive", speedup ~naive_ms:t_drc_nav ~index_ms:t_drc_idx);
        ]
      ();
    Bench_json.entry
      ~name:(slug ^ ".drc_outlines.naive") ~wall_ms:t_drc_nav
      ~throughput:(fcells /. Float.max 1e-9 (t_drc_nav /. 1000.))
      ~extras:[ ("cells", fcells) ] ();
    Bench_json.entry
      ~name:(slug ^ ".crossing.build") ~wall_ms:t_build
      ~throughput:(nrects /. Float.max 1e-9 (t_build /. 1000.))
      ~extras:[ ("fabric_rects", nrects) ]
      ();
    Bench_json.entry
      ~name:(slug ^ ".crossing.index") ~wall_ms:t_seg_idx
      ~throughput:(50. /. Float.max 1e-9 (t_seg_idx /. 1000.))
      ~extras:
        [
          ("fabric_rects", nrects);
          ("tracks", 50.);
          ("speedup_vs_naive", speedup ~naive_ms:t_seg_nav ~index_ms:t_seg_idx);
        ]
      ();
    Bench_json.entry
      ~name:(slug ^ ".crossing.naive") ~wall_ms:t_seg_nav
      ~throughput:(50. /. Float.max 1e-9 (t_seg_nav /. 1000.))
      ~extras:[ ("fabric_rects", nrects) ] ();
    Bench_json.entry
      ~name:(slug ^ ".couplings.index") ~wall_ms:t_cpl_idx
      ~throughput:(fcells /. Float.max 1e-9 (t_cpl_idx /. 1000.))
      ~extras:
        [
          ("pairs", float_of_int (List.length c_idx));
          ("speedup_vs_naive", speedup ~naive_ms:t_cpl_nav ~index_ms:t_cpl_idx);
        ]
      ();
    Bench_json.entry
      ~name:(slug ^ ".couplings.naive") ~wall_ms:t_cpl_nav
      ~throughput:(fcells /. Float.max 1e-9 (t_cpl_nav /. 1000.))
      ~extras:[ ("cells", fcells) ] ();
    gds_entry "s1" g1 t_gds1;
    gds_entry "s2" g2 t_gds2;
  ]

let run () =
  print_endline
    "== scale: generated designs through place / DRC / crossing, index vs \
     naive ==";
  let lib = Stdcell.Library.cnfet_exn ~drives:[ 1 ] () in
  let entries = List.concat_map (bench_size ~lib) (sizes ()) in
  Bench_json.write ~bench:"scale" entries
