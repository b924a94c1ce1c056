(* Machine-readable benchmark records.  Every bench writes its results
   through this one emitter to BENCH_<bench>.json in the working directory
   — one flat array of {name, wall_ms, throughput, extras} objects, plus
   ["ratio": true] on a row whose throughput is a ratio — so
   the perf trajectory can be diffed across PRs (and archived as CI
   artifacts) without scraping the human-readable tables, and tooling can
   rely on a single schema across benches. *)

type entry = {
  name : string;
  wall_ms : float;
  throughput : float;
  ratio : bool;
      (* the throughput is a ratio of two timings from one run, so it does
         not move with machine speed: the ratchet compares it with its own
         baseline, not with the median of the timing rows *)
  extras : (string * float) list;
      (* bench-specific numeric facts (cell counts, cache hits, ...) *)
}

let entry ?extras ~name ~wall_ms ~throughput () =
  {
    name;
    wall_ms;
    throughput;
    ratio = false;
    extras = Option.value extras ~default:[];
  }

(* Values are rounded to three decimals and printed by the JSON codec,
   one entry per line so ledgers diff by row. *)
let entry_json e =
  let num f = Core.Json.Num (Float.round (f *. 1000.) /. 1000.) in
  Core.Json.Obj
    ([ ("name", Core.Json.Str e.name);
       ("wall_ms", num e.wall_ms);
       ("throughput", num e.throughput) ]
    @ (if e.ratio then [ ("ratio", Core.Json.Bool true) ] else [])
    @ [ ("extras",
         Core.Json.Obj (List.map (fun (k, v) -> (k, num v)) e.extras)) ])

let write ~bench entries =
  let file = Printf.sprintf "BENCH_%s.json" bench in
  let oc = open_out file in
  output_string oc "[\n";
  let last = List.length entries - 1 in
  List.iteri
    (fun i e ->
      output_string oc "  ";
      output_string oc (Core.Json.to_string (entry_json e));
      output_string oc (if i = last then "\n" else ",\n"))
    entries;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s\n" file
