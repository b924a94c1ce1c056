module Json = Core.Json

type value = Int of int | Float of float | String of string | Bool of bool
type attrs = (string * value) list

type span = {
  name : string;
  parent : string option;
  start_ns : int64;
  dur_ns : int64;
  attrs : attrs;
  shard : int;
  instant : bool;
}

module Hist = struct
  type t = {
    buckets : float array;
    counts : int array;
    count : int;
    sum : float;
  }

  let create ~buckets =
    { buckets; counts = Array.make (Array.length buckets + 1) 0; count = 0;
      sum = 0. }

  let bucket_index buckets v =
    let n = Array.length buckets in
    let rec go i = if i >= n || v <= buckets.(i) then i else go (i + 1) in
    go 0

  let observe t v =
    let counts = Array.copy t.counts in
    let i = bucket_index t.buckets v in
    counts.(i) <- counts.(i) + 1;
    { t with counts; count = t.count + 1; sum = t.sum +. v }

  let merge a b =
    if a.buckets <> b.buckets then
      invalid_arg "Telemetry.Hist.merge: differing bucket bounds";
    {
      buckets = a.buckets;
      counts = Array.map2 ( + ) a.counts b.counts;
      count = a.count + b.count;
      sum = a.sum +. b.sum;
    }
end

(* --- the switch --- *)

let switch = Atomic.make false
let enabled () = Atomic.get switch
let enable () = Atomic.set switch true
let disable () = Atomic.set switch false

(* --- monotonised clock --- *)

(* gettimeofday can step backwards (NTP); clamping to the latest value
   already handed out keeps every duration non-negative process-wide. *)
let last_ns = Atomic.make 0L

let now_ns () =
  let raw = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  let rec bump () =
    let prev = Atomic.get last_ns in
    if Int64.compare raw prev > 0 then
      if Atomic.compare_and_set last_ns prev raw then raw else bump ()
    else prev
  in
  bump ()

(* --- shards ---

   One shard per domain, created on first use and registered globally so
   [collect] can read it after the domain is gone (pool workers are joined
   before campaigns return).  All writes are domain-local; the registry
   lock is only taken on shard creation, reset and collect. *)

type shard = {
  id : int;
  mutable spans : span list;  (* reverse recording order *)
  mutable stack : (string * int64) list;  (* open spans: name, start *)
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float * int64) Hashtbl.t;
  hists : (string, Hist.t ref) Hashtbl.t;
}

let registry_lock = Mutex.create ()
let registry : shard list ref = ref []
let next_shard = Atomic.make 0

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          id = Atomic.fetch_and_add next_shard 1;
          spans = [];
          stack = [];
          counters = Hashtbl.create 16;
          gauges = Hashtbl.create 8;
          hists = Hashtbl.create 8;
        }
      in
      Mutex.lock registry_lock;
      registry := s :: !registry;
      Mutex.unlock registry_lock;
      s)

let shard () = Domain.DLS.get shard_key
let shard_id () = (shard ()).id

let reset () =
  Mutex.lock registry_lock;
  List.iter
    (fun s ->
      s.spans <- [];
      s.stack <- [];
      Hashtbl.reset s.counters;
      Hashtbl.reset s.gauges;
      Hashtbl.reset s.hists)
    !registry;
  Mutex.unlock registry_lock

(* --- metrics --- *)

let counter_add name n =
  if enabled () then begin
    let s = shard () in
    match Hashtbl.find_opt s.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace s.counters name (ref n)
  end

let gauge_set name v =
  if enabled () then Hashtbl.replace (shard ()).gauges name (v, now_ns ())

let histogram_observe name ~buckets v =
  if enabled () then begin
    let s = shard () in
    match Hashtbl.find_opt s.hists name with
    | Some r -> r := Hist.observe !r v
    | None -> Hashtbl.replace s.hists name (ref (Hist.observe (Hist.create ~buckets) v))
  end

(* --- spans --- *)

let span_begin name =
  if enabled () then begin
    let s = shard () in
    s.stack <- (name, now_ns ()) :: s.stack
  end

let span_end ?parent ?(attrs = []) name =
  if enabled () then begin
    let s = shard () in
    match s.stack with
    | [] -> ()
    | (_, start_ns) :: rest ->
      s.stack <- rest;
      let parent =
        match parent with
        | Some _ as p -> p
        | None -> (match rest with (p, _) :: _ -> Some p | [] -> None)
      in
      let dur_ns = Int64.sub (now_ns ()) start_ns in
      s.spans <-
        { name; parent; start_ns; dur_ns; attrs; shard = s.id;
          instant = false }
        :: s.spans
  end

let with_span ?parent ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else begin
    span_begin name;
    match f () with
    | v ->
      span_end ?parent ~attrs name;
      v
    | exception e ->
      span_end ?parent ~attrs:(("error", Bool true) :: attrs) name;
      raise e
  end

let instant ?(attrs = []) name =
  if enabled () then begin
    let s = shard () in
    let parent = match s.stack with (p, _) :: _ -> Some p | [] -> None in
    s.spans <-
      { name; parent; start_ns = now_ns (); dur_ns = 0L; attrs;
        shard = s.id; instant = true }
      :: s.spans
  end

(* --- collection --- *)

type snapshot = {
  spans : span list;
  counters : (string * int) list;
  gauges : (string * float) list;
  hists : (string * Hist.t) list;
}

let by_name (a, _) (b, _) = String.compare a b

(* Canonicalise (sort by name, sum duplicates) before zipping, so the
   merge is associative/commutative on arbitrary assoc lists. *)
let canon_counters l =
  let rec squash = function
    | (k1, v1) :: (k2, v2) :: rest when String.equal k1 k2 ->
      squash ((k1, v1 + v2) :: rest)
    | kv :: rest -> kv :: squash rest
    | [] -> []
  in
  squash (List.stable_sort by_name l)

let merge_counters a b = canon_counters (a @ b)

let collect () =
  Mutex.lock registry_lock;
  let shards = !registry in
  Mutex.unlock registry_lock;
  let spans =
    List.concat_map (fun (s : shard) -> s.spans) shards
    |> List.sort (fun a b ->
           compare (a.start_ns, a.shard, a.name) (b.start_ns, b.shard, b.name))
  in
  let counters =
    List.fold_left
      (fun acc (s : shard) ->
        merge_counters acc
          (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) s.counters []))
      [] shards
  in
  let gauges =
    let best : (string, float * int64) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (s : shard) ->
        Hashtbl.iter
          (fun k (v, ts) ->
            match Hashtbl.find_opt best k with
            | Some (_, ts') when Int64.compare ts' ts >= 0 -> ()
            | _ -> Hashtbl.replace best k (v, ts))
          s.gauges)
      shards;
    Hashtbl.fold (fun k (v, _) acc -> (k, v) :: acc) best []
    |> List.sort by_name
  in
  let hists =
    let tbl : (string, Hist.t) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (s : shard) ->
        Hashtbl.iter
          (fun k r ->
            match Hashtbl.find_opt tbl k with
            | Some h -> Hashtbl.replace tbl k (Hist.merge h !r)
            | None -> Hashtbl.replace tbl k !r)
          s.hists)
      shards;
    Hashtbl.fold (fun k h acc -> (k, h) :: acc) tbl [] |> List.sort by_name
  in
  { spans; counters; gauges; hists }

let span_shape snap =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let key = (sp.parent, sp.name) in
      Hashtbl.replace tbl key
        (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0))
    snap.spans;
  Hashtbl.fold (fun (p, n) c acc -> (p, n, c) :: acc) tbl []
  |> List.sort compare

(* --- quantiles --- *)

(* Linear interpolation within the bucket containing the target rank —
   the client-side analogue of PromQL's histogram_quantile, shared by
   the text summary, the tests and the `top` monitor. *)
let quantile_of_hist (h : Hist.t) q =
  let n = Array.length h.Hist.buckets in
  if h.Hist.count = 0 || n = 0 || not (q >= 0. && q <= 1.) then None
  else begin
    let target = q *. float_of_int h.Hist.count in
    let rec go i cum =
      if i >= n then
        (* overflow bucket: no finite upper bound to interpolate into *)
        Some h.Hist.buckets.(n - 1)
      else
        let inside = h.Hist.counts.(i) in
        let cum' = cum + inside in
        if inside > 0 && float_of_int cum' >= target then begin
          let upper = h.Hist.buckets.(i) in
          let lower =
            if i > 0 then h.Hist.buckets.(i - 1)
            else if upper > 0. then 0.
            else upper
          in
          let frac =
            Float.max 0. ((target -. float_of_int cum) /. float_of_int inside)
          in
          Some (lower +. ((upper -. lower) *. frac))
        end
        else go (i + 1) cum'
    in
    go 0 0
  end

let quantile snap name q =
  Option.bind (List.assoc_opt name snap.hists) (fun h -> quantile_of_hist h q)

(* --- exporters --- *)

let json_of_value = function
  | Int i -> Json.int i
  | Float f -> Json.Num f
  | String s -> Json.Str s
  | Bool b -> Json.Bool b

(* Aggregate spans by name for the summaries. *)
let span_rollup snap =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      if not sp.instant then begin
        let count, total =
          Option.value (Hashtbl.find_opt tbl sp.name) ~default:(0, 0L)
        in
        Hashtbl.replace tbl sp.name (count + 1, Int64.add total sp.dur_ns)
      end)
    snap.spans;
  Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let ms_of_ns ns = Int64.to_float ns /. 1e6

let summary_to_text snap =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== telemetry summary ==\n";
  let rollup = span_rollup snap in
  if rollup <> [] then begin
    add "spans (by name):\n";
    let w =
      List.fold_left (fun w (n, _, _) -> max w (String.length n)) 4 rollup
    in
    add "  %-*s  %7s  %12s  %12s\n" w "name" "count" "total-ms" "mean-ms";
    List.iter
      (fun (name, count, total) ->
        add "  %-*s  %7d  %12.3f  %12.3f\n" w name count (ms_of_ns total)
          (ms_of_ns total /. float_of_int count))
      rollup
  end;
  if snap.counters <> [] then begin
    add "counters:\n";
    List.iter (fun (k, v) -> add "  %-40s %d\n" k v) snap.counters
  end;
  if snap.gauges <> [] then begin
    add "gauges:\n";
    List.iter (fun (k, v) -> add "  %-40s %g\n" k v) snap.gauges
  end;
  if snap.hists <> [] then begin
    add "histograms:\n";
    List.iter
      (fun (k, (h : Hist.t)) ->
        add "  %s: count=%d sum=%g" k h.Hist.count h.Hist.sum;
        (match
           (quantile_of_hist h 0.5, quantile_of_hist h 0.9,
            quantile_of_hist h 0.99)
         with
        | Some p50, Some p90, Some p99 ->
          add " p50=%g p90=%g p99=%g" p50 p90 p99
        | _ -> ());
        add "\n";
        Array.iteri
          (fun i c ->
            if c > 0 then
              if i < Array.length h.Hist.buckets then
                add "    <= %-10g %d\n" h.Hist.buckets.(i) c
              else add "    >  %-10g %d\n"
                     h.Hist.buckets.(Array.length h.Hist.buckets - 1) c)
          h.Hist.counts)
      snap.hists
  end;
  Buffer.contents buf

let summary_to_json snap =
  let obj f kvs = Json.Obj (List.map (fun (k, v) -> (k, f v)) kvs) in
  let nums a = Json.Arr (Array.to_list (Array.map (fun v -> Json.Num v) a)) in
  let hist (h : Hist.t) =
    Json.Obj
      [
        ("buckets", nums h.Hist.buckets);
        ("counts", Json.Arr (Array.to_list (Array.map Json.int h.Hist.counts)));
        ("count", Json.int h.Hist.count);
        ("sum", Json.Num h.Hist.sum);
      ]
  in
  let span (name, count, total) =
    Json.Obj
      [
        ("name", Json.Str name);
        ("count", Json.int count);
        ("total_ms", Json.Num (ms_of_ns total));
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("spans", Json.Arr (List.map span (span_rollup snap)));
         ("counters", obj Json.int snap.counters);
         ("gauges", obj (fun v -> Json.Num v) snap.gauges);
         ("histograms", obj hist snap.hists);
       ])

let chrome_trace snap =
  let t0 =
    match snap.spans with [] -> 0L | sp :: _ -> sp.start_ns
  in
  let us_of ns = Json.Num (Int64.to_float (Int64.sub ns t0) /. 1e3) in
  let event sp =
    let args =
      match sp.parent with
      | Some p -> ("parent", String p) :: sp.attrs
      | None -> sp.attrs
    in
    let phase =
      if sp.instant then
        [ ("ph", Json.Str "i"); ("s", Json.Str "t"); ("ts", us_of sp.start_ns) ]
      else
        [
          ("ph", Json.Str "X");
          ("ts", us_of sp.start_ns);
          ("dur", Json.Num (Int64.to_float sp.dur_ns /. 1e3));
        ]
    in
    Json.Obj
      ((("name", Json.Str sp.name) :: ("cat", Json.Str "cnfet") :: phase)
      @ [
          ("pid", Json.int 1);
          ("tid", Json.int sp.shard);
          ( "args",
            Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) args) );
        ])
  in
  Json.to_string
    (Json.Obj [ ("traceEvents", Json.Arr (List.map event snap.spans)) ])

(* --- Prometheus text exposition (v0.0.4) --- *)

module Prometheus = struct
  let valid_char first c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || c = '_' || c = ':'
    || ((not first) && c >= '0' && c <= '9')

  let sanitize_name name =
    if name = "" then "_"
    else begin
      let buf = Buffer.create (String.length name + 1) in
      String.iteri
        (fun i c ->
          if i = 0 && c >= '0' && c <= '9' then begin
            Buffer.add_char buf '_';
            Buffer.add_char buf c
          end
          else if valid_char (i = 0) c then Buffer.add_char buf c
          else Buffer.add_char buf '_')
        name;
      Buffer.contents buf
    end

  let escape_label s =
    let buf = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let escape_help s =
    let buf = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* finite values in the codec's shortest round-trip spelling, which
     Prometheus parses like any float *)
  let fmt_value f =
    if f <> f then "NaN"
    else if f = Float.infinity then "+Inf"
    else if f = Float.neg_infinity then "-Inf"
    else Json.to_string (Json.Num f)

  let labels_string = function
    | [] -> ""
    | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize_name k) (escape_label v))
             labels)
      ^ "}"

  let render ?(labels = []) snap =
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let header name ~kind ~orig =
      add "# HELP %s %s\n" name (escape_help orig);
      add "# TYPE %s %s\n" name kind
    in
    List.iter
      (fun (orig, v) ->
        let name = sanitize_name orig ^ "_total" in
        header name ~kind:"counter" ~orig;
        add "%s%s %d\n" name (labels_string labels) v)
      snap.counters;
    List.iter
      (fun (orig, v) ->
        let name = sanitize_name orig in
        header name ~kind:"gauge" ~orig;
        add "%s%s %s\n" name (labels_string labels) (fmt_value v))
      snap.gauges;
    List.iter
      (fun (orig, (h : Hist.t)) ->
        let name = sanitize_name orig in
        header name ~kind:"histogram" ~orig;
        (* _bucket series are cumulative and always end at le="+Inf" *)
        let cum = ref 0 in
        Array.iteri
          (fun i bound ->
            cum := !cum + h.Hist.counts.(i);
            add "%s_bucket%s %d\n" name
              (labels_string (labels @ [ ("le", fmt_value bound) ]))
              !cum)
          h.Hist.buckets;
        add "%s_bucket%s %d\n" name
          (labels_string (labels @ [ ("le", "+Inf") ]))
          h.Hist.count;
        add "%s_sum%s %s\n" name (labels_string labels) (fmt_value h.Hist.sum);
        add "%s_count%s %d\n" name (labels_string labels) h.Hist.count)
      snap.hists;
    Buffer.contents buf

  type sample = {
    metric : string;
    labels : (string * string) list;
    value : float;
  }

  let unescape_label s =
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i < n then
        if s.[i] = '\\' && i + 1 < n then begin
          (match s.[i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | ('\\' | '"') as c -> Buffer.add_char buf c
          | c ->
            Buffer.add_char buf '\\';
            Buffer.add_char buf c);
          go (i + 2)
        end
        else begin
          Buffer.add_char buf s.[i];
          go (i + 1)
        end
    in
    go 0;
    Buffer.contents buf

  let parse_value s =
    match String.trim s with
    | "+Inf" -> Some Float.infinity
    | "-Inf" -> Some Float.neg_infinity
    | "NaN" -> Some Float.nan
    | t -> float_of_string_opt t

  (* One `name{k="v",...} value` line; labels may contain escaped quotes,
     so the closing brace is found by scanning the label grammar, not by
     a blind index. *)
  let parse_sample line =
    let n = String.length line in
    match String.index_opt line '{' with
    | None -> (
      (* unlabelled: name value *)
      match String.index_opt line ' ' with
      | None -> None
      | Some sp ->
        Option.map
          (fun v -> { metric = String.sub line 0 sp; labels = []; value = v })
          (parse_value (String.sub line sp (n - sp))))
    | Some lb ->
      let metric = String.sub line 0 lb in
      (* scan key="value" pairs, honouring backslash escapes *)
      let rec labels i acc =
        if i >= n then None
        else if line.[i] = '}' then Some (List.rev acc, i + 1)
        else if line.[i] = ',' || line.[i] = ' ' then labels (i + 1) acc
        else
          match String.index_from_opt line i '=' with
          | None -> None
          | Some eq ->
            let key = String.trim (String.sub line i (eq - i)) in
            if eq + 1 >= n || line.[eq + 1] <> '"' then None
            else
              let rec close j =
                if j >= n then None
                else if line.[j] = '\\' then close (j + 2)
                else if line.[j] = '"' then Some j
                else close (j + 1)
              in
              (match close (eq + 2) with
              | None -> None
              | Some q ->
                let raw = String.sub line (eq + 2) (q - eq - 2) in
                labels (q + 1) ((key, unescape_label raw) :: acc))
      in
      (match labels (lb + 1) [] with
      | None -> None
      | Some (labels, after) ->
        Option.map
          (fun v -> { metric; labels; value = v })
          (parse_value (String.sub line after (n - after))))

  let parse text =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None else parse_sample line)
end

(* --- structured event log --- *)

module Events = struct
  type event = {
    seq : int;
    ts_ms : float;
    kind : string;
    trace_id : string option;
    attrs : attrs;
  }

  (* One process-wide bounded ring under its own mutex: emits come from
     the scheduler (under its lock) and the server loop concurrently,
     and must never contend with the metrics shards. *)
  let lock = Mutex.create ()
  let ring = ref (Array.make 1024 None)
  let next_seq = ref 0
  let stored = ref 0 (* events currently retained *)
  let dropped_count = ref 0
  let sink : (string -> unit) option ref = ref None

  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let set_capacity n =
    if n < 1 then invalid_arg "Telemetry.Events.set_capacity: must be >= 1";
    with_lock (fun () ->
        ring := Array.make n None;
        stored := 0;
        dropped_count := 0)

  let capacity () = with_lock (fun () -> Array.length !ring)
  let dropped () = with_lock (fun () -> !dropped_count)

  let clear () =
    with_lock (fun () ->
        Array.fill !ring 0 (Array.length !ring) None;
        stored := 0;
        dropped_count := 0)

  let set_sink f = with_lock (fun () -> sink := f)

  let to_json e =
    let trace =
      match e.trace_id with Some t -> [ ("trace_id", Json.Str t) ] | None -> []
    in
    let envelope =
      [ ("seq", Json.int e.seq); ("ts_ms", Json.Num e.ts_ms);
        ("kind", Json.Str e.kind) ]
      @ trace
    in
    let attr (k, v) =
      (* an attr reusing an envelope key would make a duplicate-key
         document; prefix it instead of emitting invalid JSON *)
      match k with
      | "seq" | "ts_ms" | "kind" | "trace_id" -> ("attr_" ^ k, json_of_value v)
      | _ -> (k, json_of_value v)
    in
    Json.to_string (Json.Obj (envelope @ List.map attr e.attrs))

  let emit ?trace_id ?(attrs = []) kind =
    let line =
      with_lock (fun () ->
          let e =
            {
              seq = !next_seq;
              ts_ms = Int64.to_float (now_ns ()) /. 1e6;
              kind;
              trace_id;
              attrs;
            }
          in
          incr next_seq;
          let cap = Array.length !ring in
          let slot = e.seq mod cap in
          if !ring.(slot) <> None then incr dropped_count
          else incr stored;
          !ring.(slot) <- Some e;
          match !sink with None -> None | Some f -> Some (f, to_json e))
    in
    (* the sink runs outside the lock (it may write a file) and must not
       take the emitter down *)
    match line with
    | None -> ()
    | Some (f, json) -> ( try f json with _ -> ())

  let recent ?limit () =
    with_lock (fun () ->
        let cap = Array.length !ring in
        let events = ref [] in
        (* newest is seq-1; walk back over the retained window *)
        let newest = !next_seq - 1 in
        let oldest = max (!next_seq - !stored) (!next_seq - cap) in
        for s = newest downto max 0 oldest do
          match !ring.(s mod cap) with
          | Some e when e.seq = s -> events := e :: !events
          | _ -> ()
        done;
        let all = !events in
        match limit with
        | None -> all
        | Some k when k >= List.length all -> all
        | Some k ->
          (* keep the k newest *)
          let drop = List.length all - k in
          List.filteri (fun i _ -> i >= drop) all)
end
