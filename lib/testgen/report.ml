let signature_string s =
  "{"
  ^ String.concat ","
      (List.map
         (fun (row, d) ->
           Printf.sprintf "%d:%s" row (Logic.Switch_graph.drive_string d))
         s)
  ^ "}"

let to_text (r : Campaign.result) =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let d = r.Campaign.dictionary in
  add "testgen %s style=%s scheme=%s\n" r.Campaign.cell
    (Layout.Cell.style_string r.Campaign.style)
    (Layout.Cell.scheme_string r.Campaign.scheme);
  add "campaign: trials=%d failing=%d (%.2f%%) classes=%d\n"
    d.Dictionary.trials d.Dictionary.failing
    (if d.Dictionary.trials = 0 then 0.
     else
       100. *. float_of_int d.Dictionary.failing
       /. float_of_int d.Dictionary.trials)
    (List.length d.Dictionary.classes);
  add "fault dictionary:\n";
  List.iteri
    (fun i (c : Dictionary.fault_class) ->
      add "  class %d: count=%d first=%d rows=%s\n" (i + 1)
        c.Dictionary.count c.Dictionary.first_trial
        (signature_string c.Dictionary.signature))
    d.Dictionary.classes;
  let v = r.Campaign.vectors in
  add "vectors: greedy=[%s] covered=%d/%d%s\n"
    (String.concat ";" (List.map string_of_int v.Vectors.vectors))
    v.Vectors.covered v.Vectors.classes
    (match v.Vectors.optimal with
    | Some n -> Printf.sprintf " optimal=%d" n
    | None -> "");
  add "spare-track repair:\n";
  List.iter
    (fun (p : Repair.spare_point) ->
      add "  spares=%d repaired=%d yield=%.2f%%\n" p.Repair.spares
        p.Repair.repaired (100. *. p.Repair.yield))
    r.Campaign.spare_curve;
  add "redundancy (N-of-M tubes):\n";
  List.iter
    (fun (p : Repair.redundancy_point) ->
      add "  tubes=%d overhead=%.2fx yield=%.4f\n" p.Repair.tubes
        p.Repair.overhead p.Repair.yield)
    r.Campaign.redundancy;
  Buffer.contents b
