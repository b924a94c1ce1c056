(* Case study 2 end to end: map a full adder onto the CNFET standard-cell
   library, place it under both layout schemes, compare against CMOS, and
   stream the placed design to GDSII — the complete "logic-to-GDSII" flow
   of Section IV.

   Run with: dune exec examples/adder_flow.exe *)

let ok r = Core.Diag.ok_exn r

let () =
  (* 1. logic: either the paper's hand structure or the generic mapper *)
  let fa = Flow.Full_adder.netlist () in
  (match Flow.Full_adder.check () with
  | Ok () -> print_endline "full adder structure verified (9x NAND2 + buffers)"
  | Error e -> failwith (Core.Diag.to_string e));
  let mapped =
    ok
      (Flow.Mapper.map_exprs ~design:"fa_mapped"
         [ ("SUM", Flow.Full_adder.sum_expr);
           ("COUT", Flow.Full_adder.cout_expr) ])
  in
  Printf.printf "hand netlist: %d cells; generic NAND2/INV mapping: %d cells\n"
    (List.length fa.Flow.Netlist_ir.instances)
    (List.length mapped.Flow.Netlist_ir.instances);

  (* 2. libraries *)
  let cn = Stdcell.Library.cnfet_exn ~drives:[ 1; 2; 4; 7; 9 ] () in
  let cm = Stdcell.Library.cmos_exn ~drives:[ 1; 2; 4; 7; 9 ] () in

  (* 3. placement under the two schemes + the CMOS reference *)
  let p1 = ok (Flow.Placer.rows ~lib:cn fa) in
  let p2 = ok (Flow.Placer.shelves ~lib:cn fa) in
  let pc = ok (Flow.Placer.rows ~lib:cm fa) in
  let report label p =
    Printf.printf "  %-16s die %5d x %4d = %7d lambda^2, utilization %.2f\n"
      label p.Flow.Placer.die_width p.Flow.Placer.die_height
      (Flow.Placer.die_area p) (Flow.Placer.utilization p)
  in
  print_endline "\nplacement:";
  report "CMOS rows" pc;
  report "CNFET scheme 1" p1;
  report "CNFET scheme 2" p2;
  Printf.printf "  area gains: scheme 1 %.2fx, scheme 2 %.2fx over CMOS\n"
    (float_of_int (Flow.Placer.die_area pc) /. float_of_int (Flow.Placer.die_area p1))
    (float_of_int (Flow.Placer.die_area pc) /. float_of_int (Flow.Placer.die_area p2));

  (* 4. characterization of the cells actually used, exported as Liberty *)
  let entries =
    [ Stdcell.Library.find_exn cn ~name:"NAND2" ~drive:2;
      Stdcell.Library.find_exn cn ~name:"INV" ~drive:4 ]
  in
  let characterized =
    List.map
      (fun e -> (e, Stdcell.Characterize.all_arcs_exn ~lib:cn e ~load_inv1x:4))
      entries
  in
  Stdcell.Liberty.write_file "cnfet_cells.lib" ~lib:cn characterized;
  print_endline "\nwrote cnfet_cells.lib (simulator-characterized timing)";

  (* 5. GDSII stream out *)
  Out_channel.with_open_bin "full_adder_s2.gds" (fun oc ->
      output_string oc
        (ok (Flow.Gds_export.placement ~lib:cn ~scheme:`S2 ~name:"fa" p2)));
  (match Gds.Stream.read_file "full_adder_s2.gds" with
  | Ok g ->
    Printf.printf "wrote full_adder_s2.gds: %d structures, %d boundaries in top\n"
      (List.length g.Gds.Stream.structures)
      (match g.Gds.Stream.structures with
      | top :: _ -> List.length top.Gds.Stream.elements
      | [] -> 0)
  | Error e -> failwith e)
