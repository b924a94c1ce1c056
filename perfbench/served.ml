(* The in-process side of the served workloads (served_batch,
   served_workers), whose traffic run.py sends to `cnfet_dk serve`:

   - [reference]: run jobs straight through Service.Runner, the documents
     the served results must equal at any --workers;
   - [layers]: the traced run's direct layer calls on the jobs the run
     sent: the request/result codec, journal appends, and the compute
     layers behind a sample of each job kind. *)

open Util

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let parse what line =
  match Json.of_string line with
  | Ok j -> j
  | Error m -> fail "%s: %s" what m

let job_of_json j =
  match Service.Job.of_json j with
  | Ok job -> job
  | Error d -> fail "job: %s" (Core.Diag.to_string d)

let job_of_request line =
  match Json.member "job" (parse "request" line) with
  | Some j -> job_of_json j
  | None -> fail "request without a job member"

(* [reference jobs=FILE]: one job document per line in, one
   {"i","ok","result"} line out per job, in order. *)
let reference ~jobs =
  let pass_cache = Core.Pass.cache_create () in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      List.iteri
        (fun i line ->
          let job = job_of_json (parse "job" line) in
          let fields =
            match Service.Runner.run ~pool ~pass_cache job with
            | Ok doc -> [ ("ok", Json.Bool true); ("result", doc) ]
            | Error d ->
              [ ("ok", Json.Bool false); ("error", str (Core.Diag.to_string d)) ]
          in
          emit (Json.Obj (("i", int i) :: fields)))
        (read_lines jobs))

(* Time [f] over [reps] calls, per call: codec calls are a few
   microseconds, below one clock reading's resolution. *)
let per_call ~reps f =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int reps

(* Request decode + admission (parse, Job.of_json, validate, digest) plus
   the result document's encode, per job, in microseconds. *)
let codec_us ~requests ~results =
  List.map2
    (fun req res ->
      let decode () =
        let job = job_of_request req in
        ignore (Service.Job.validate job);
        Service.Job.digest job
      in
      let doc =
        match Json.member "result" (parse "result" res) with
        | Some d -> d
        | None -> Json.Null
      in
      let encode () = Json.to_string doc in
      1e6 *. (per_call ~reps:20 decode +. per_call ~reps:20 encode))
    requests results

(* Direct Service.Journal appends of the records the scheduler writes
   for each job (a Submit and a Settle), each one framed and fsync'd. *)
let journal_ms ~dir ~requests ~limit =
  let path = Filename.concat dir "layers.journal" in
  let j = ok_or_fail "journal" (Service.Journal.open_append path) in
  let times =
    List.concat
      (List.filteri (fun i _ -> i < limit) requests
      |> List.mapi (fun i req ->
             let job = job_of_request req in
             let digest = Service.Job.digest job in
             let submit =
               Service.Journal.Submit
                 {
                   sid = i;
                   sjob = job;
                   sdigest = digest;
                   strace = Printf.sprintf "bench-%d" i;
                   spriority = "normal";
                   sdeadline_ms = None;
                   scost_ms = None;
                 }
             and settle =
               Service.Journal.Settle { tid = i; tdigest = digest; toutcome = "done" }
             in
             List.map
               (fun e -> 1e3 *. snd (time (fun () -> Service.Journal.append j e)))
               [ submit; settle ]))
  in
  Service.Journal.close j;
  Sys.remove path;
  times

let rules = Pdk.Rules.default

let cell_fn name =
  match Logic.Cell_fun.find_opt name with
  | Some fn -> fn
  | None -> fail "unknown cell %s" name

let scheme_of = function `S1 -> Layout.Cell.Scheme1 | `S2 -> Layout.Cell.Scheme2

let first n xs = List.filteri (fun i _ -> i < n) xs

(* [layers requests=FILE results=FILE dir=DIR domains=N]: every
   per-layer figure of a served run that can be measured from outside the
   server; [domains] is the pool size the server runs each job on. *)
let layers ~requests ~results ~dir ~domains =
  let requests = read_lines requests and results = read_lines results in
  if List.length requests <> List.length results then
    fail "%d requests but %d results" (List.length requests)
      (List.length results);
  let codec = codec_us ~requests ~results in
  let journal = journal_ms ~dir ~requests ~limit:50 in
  let jobs = List.map job_of_request requests in
  let char = Layers.char_layers () in
  let injector = Layers.tally () and testgen = Layers.tally () in
  let pool_busy = ref 0. and pool_total = ref 0. in
  let flow_passes = ref [] and flow_gds_bytes = ref 0 in
  let signoff = Layers.signoff () in
  let rng = rng ~seed:0 ~salt:0x7ac in
  let kind k = List.filter (fun j -> Service.Job.kind j = k) jobs in
  List.iter
    (function
      | Service.Job.Characterize c ->
        let lib =
          Layers.timed char.Layers.library ~n:1 (fun () ->
              ok_or_fail "library"
                (Stdcell.Library.cnfet ~drives:[ c.Service.Job.char_drive ] ()))
        in
        let entry =
          ok_or_fail "library"
            (Stdcell.Library.find lib ~name:c.Service.Job.char_cell
               ~drive:c.Service.Job.char_drive)
        in
        Layers.characterize char ~lib entry ~loads:c.Service.Job.loads
      | _ -> ())
    (first 4 (kind "characterize"));
  List.iter
    (function
      | Service.Job.Fault f ->
        let cell =
          ok_or_fail "layout"
            (Layout.Cell.make ~rules ~fn:(cell_fn f.Service.Job.cell)
               ~style:f.Service.Job.style ~scheme:Layout.Cell.Scheme1
               ~drive:f.Service.Job.drive)
        in
        let config =
          { Fault.Injector.default_config with
            Fault.Injector.trials = f.Service.Job.trials;
            tracks_per_trial = f.Service.Job.tracks_per_trial;
            max_angle_deg = f.Service.Job.max_angle_deg;
            seed = f.Service.Job.seed }
        in
        ignore
          (Layers.timed injector ~n:f.Service.Job.trials (fun () ->
               Fault.Injector.run config cell));
        (* again on a pool the size the server runs jobs on: one
           map_reduce per campaign, so the gauges cover all of it *)
        Parallel.Pool.with_pool ~domains (fun pool ->
            ignore
              (Layers.pool_gauges ~busy:pool_busy ~total:pool_total (fun () ->
                   Fault.Injector.run ~pool config cell)))
      | _ -> ())
    (first 16 (kind "fault"));
  List.iter
    (function
      | Service.Job.Testgen t ->
        let cell =
          ok_or_fail "layout"
            (Layout.Cell.make ~rules ~fn:(cell_fn t.Service.Job.tg_cell)
               ~style:t.Service.Job.tg_style
               ~scheme:(scheme_of t.Service.Job.tg_scheme)
               ~drive:t.Service.Job.tg_drive)
        in
        let config =
          {
            Testgen.Campaign.fault =
              { Fault.Injector.default_config with
                Fault.Injector.trials = t.Service.Job.tg_trials;
                tracks_per_trial = t.Service.Job.tg_tracks_per_trial;
                max_angle_deg = t.Service.Job.tg_max_angle_deg;
                seed = t.Service.Job.tg_seed };
            max_spares = t.Service.Job.tg_max_spares;
            p_good = t.Service.Job.tg_p_good;
            max_extra_tubes = t.Service.Job.tg_max_extra_tubes;
          }
        in
        ignore
          (Layers.timed testgen ~n:t.Service.Job.tg_trials (fun () ->
               Testgen.Campaign.run config cell))
      | _ -> ())
    (first 8 (kind "testgen"));
  List.iter
    (function
      | Service.Job.Flow f ->
        let netlist =
          ok_or_fail "flow source"
            (match f.Service.Job.source with
            | Service.Job.Full_adder -> Ok (Flow.Full_adder.netlist ())
            | Service.Job.Ripple bits -> Flow.Ripple_adder.netlist ~bits
            | Service.Job.Netlist_text text -> Flow.Netlist_ir.of_string text
            | Service.Job.Generated spec -> Flow.Generate.of_spec spec)
        in
        let lib =
          Layers.timed char.Layers.library ~n:1 (fun () ->
              ok_or_fail "library"
                (Stdcell.Library.cnfet ~drives:(Layers.drives_of [ netlist ]) ()))
        in
        let spec =
          Flow.Pipeline.spec_of_netlist ~scheme:f.Service.Job.scheme
            ~aspect:f.Service.Job.aspect ~lib netlist
        in
        let result, report = Flow.Pipeline.run spec in
        let r = ok_or_fail "flow" result in
        flow_passes := Layers.pass_seconds report :: !flow_passes;
        flow_gds_bytes := !flow_gds_bytes + String.length r.Flow.Pipeline.gds_bytes;
        ignore
          (Layers.run_signoff signoff ~lib ~scheme:f.Service.Job.scheme ~rng
             ~ntracks:50 r.Flow.Pipeline.placement)
      | _ -> ())
    (first 8 (kind "flow"));
  emit
    (Json.Obj
       [
         ("codec_us", nums codec);
         ("journal_append_ms", nums journal);
         ("char", Layers.char_json char);
         ("injector", Layers.tally_json injector);
         ("testgen", Layers.tally_json testgen);
         ("flow",
          Json.Obj
            [
              ("passes",
               Json.Arr
                 (List.rev_map
                    (fun ps -> Json.Obj (List.map (fun (n, w) -> (n, num w)) ps))
                    !flow_passes));
              ("gds_bytes", int !flow_gds_bytes);
            ]);
         ("signoff", Layers.signoff_json signoff);
         ("pool_busy_s", num !pool_busy);
         ("pool_total_s", num !pool_total);
       ])
