let pruned_count (o : Engine.outcome) =
  List.length (List.filter (fun e -> e.Engine.pruned) o.Engine.evaluated)

let text (o : Engine.outcome) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "DSE campaign: %s (%s layout), %s sweep over %d points\n"
       o.Engine.cell (Layout.Cell.style_string o.Engine.style)
       (if o.Engine.adaptive then "adaptive" else "exhaustive")
       o.Engine.fine_grid);
  Buffer.add_string b
    "  pitch  p_met  removal  drive scheme tubes  delay_ps  energy_fj  \
     yield [lo, hi]          trials  area\n";
  List.iter
    (fun (e : Engine.eval) ->
      let p = e.Engine.point in
      Buffer.add_string b
        (Printf.sprintf
           "  %5g  %5g  %7g  %5d %6s %5d  %8.2f  %9.3f  %5.3f [%5.3f, %5.3f]  %6d  %d\n"
           p.Knobs.pitch_nm p.Knobs.p_metallic p.Knobs.removal_eff
           p.Knobs.drive
           (Layout.Cell.scheme_string p.Knobs.scheme)
           e.Engine.tubes e.Engine.delay_ps e.Engine.energy_fj e.Engine.yield_
           e.Engine.yield_lo e.Engine.yield_hi e.Engine.trials
           e.Engine.area_lambda2))
    o.Engine.front;
  Buffer.add_string b
    (Printf.sprintf
       "front: %d points; evaluated %d of %d (%d pruned) in %d rounds, %d \
        trials\n"
       (List.length o.Engine.front)
       (List.length o.Engine.evaluated)
       o.Engine.fine_grid (pruned_count o) o.Engine.rounds
       o.Engine.trials_total);
  Buffer.contents b

let csv (o : Engine.outcome) =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "pitch_nm,p_metallic,removal_eff,drive,scheme,tubes,delay_ps,energy_fj,yield,yield_lo,yield_hi,trials,area_lambda2\n";
  List.iter
    (fun (e : Engine.eval) ->
      let p = e.Engine.point in
      Buffer.add_string b
        (Printf.sprintf "%.6g,%.6g,%.6g,%d,%s,%d,%.6g,%.6g,%.6g,%.6g,%.6g,%d,%d\n"
           p.Knobs.pitch_nm p.Knobs.p_metallic p.Knobs.removal_eff
           p.Knobs.drive
           (Layout.Cell.scheme_string p.Knobs.scheme)
           e.Engine.tubes e.Engine.delay_ps e.Engine.energy_fj e.Engine.yield_
           e.Engine.yield_lo e.Engine.yield_hi e.Engine.trials
           e.Engine.area_lambda2))
    o.Engine.front;
  Buffer.contents b
