(* Crash-recovery and worker-sharding tests: the journal codec (framing,
   torn tails, compaction), the scheduler's recover/replay reconciliation
   against the persisted cache, the cache_store tmp-leak regression, the
   out-of-process dispatch API, and the worker pool end to end (including
   a worker killed mid-job).

   The reconciliation tests lean on the repo's determinism guarantee:
   a re-run job produces a bit-identical result document, so "recovery is
   exact" is checkable with (=). *)

module Json = Service.Json
module Job = Service.Job
module Journal = Service.Journal
module Scheduler = Service.Scheduler
module Workers = Service.Workers

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cnfet_%s_%d_%d" tag (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* --- Journal framing --- *)

let sample_entries =
  let j1 = Job.fault ~trials:40 ~seed:3 "NAND2" in
  let j2 = Job.fault ~trials:40 ~seed:4 "NOR2" in
  [
    Journal.Submit
      {
        sid = 0;
        sjob = j1;
        sdigest = Job.digest j1;
        strace = "t0-abc";
        spriority = "high";
        sdeadline_ms = Some 50.;
        scost_ms = None;
      };
    Journal.Submit
      {
        sid = 1;
        sjob = j2;
        sdigest = Job.digest j2;
        strace = "t1-def";
        spriority = "normal";
        sdeadline_ms = None;
        scost_ms = Some 2.;
      };
    Journal.Settle { tid = 0; tdigest = Job.digest j1; toutcome = "done" };
  ]

let journal_roundtrip () =
  (* the standard IEEE CRC-32 check value pins the polynomial *)
  check_str "crc32 check value" "cbf43926"
    (Printf.sprintf "%08lx" (Journal.crc32 "123456789"));
  let dir = fresh_dir "jnl" in
  let path = Filename.concat dir "journal.ndjson" in
  let j = Result.get_ok (Journal.open_append path) in
  List.iter (Journal.append j) sample_entries;
  check_int "appends counted" 3 (Journal.appends j);
  checkb "healthy" true (Journal.healthy j);
  Journal.close j;
  let l = Result.get_ok (Journal.load path) in
  checkb "no truncation" false l.Journal.truncated;
  checkb "entries survive the disk roundtrip" true
    (l.Journal.entries = sample_entries);
  (* a missing journal is an empty one, not an error *)
  let missing = Result.get_ok (Journal.load (Filename.concat dir "nope")) in
  checkb "missing file loads empty" true
    (missing.Journal.entries = [] && not missing.Journal.truncated);
  rm_rf dir

let journal_torn_tail () =
  let dir = fresh_dir "torn" in
  let path = Filename.concat dir "journal.ndjson" in
  let j = Result.get_ok (Journal.open_append path) in
  List.iter (Journal.append j) sample_entries;
  Journal.close j;
  (* a crash mid-append leaves a partial final line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "241 deadbeef {\"t\":\"submit\",\"id\":9";
  close_out oc;
  let l = Result.get_ok (Journal.load path) in
  checkb "torn tail flagged" true l.Journal.truncated;
  checkb "intact prefix kept" true (l.Journal.entries = sample_entries);
  (* a corrupted CRC in the last full record is also discarded *)
  let body = In_channel.with_open_bin path In_channel.input_all in
  let flipped =
    let b = Bytes.of_string body in
    (* flip one payload byte of the final record, keep its framing *)
    Bytes.set b (Bytes.length b - 40) 'X';
    Bytes.to_string b
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc flipped);
  let l2 = Result.get_ok (Journal.load path) in
  checkb "crc mismatch truncates" true
    (l2.Journal.truncated
    && List.length l2.Journal.entries < List.length sample_entries + 1);
  rm_rf dir

let journal_compaction () =
  let dir = fresh_dir "compact" in
  let path = Filename.concat dir "journal.ndjson" in
  let j = Result.get_ok (Journal.open_append path) in
  List.iter (Journal.append j) sample_entries;
  Journal.close j;
  let keep = [ List.nth sample_entries 1 ] in
  (match Journal.rewrite path keep with
  | Ok () -> ()
  | Error d -> Alcotest.failf "rewrite failed: %s" (Core.Diag.to_string d));
  let l = Result.get_ok (Journal.load path) in
  checkb "compacted log parses to exactly the kept entries" true
    (l.Journal.entries = keep && not l.Journal.truncated);
  check_int "rewrite leaves only the journal itself" 1
    (Array.length (Sys.readdir dir));
  rm_rf dir

(* --- Crash recovery reconciliation --- *)

let vconfig dir =
  {
    Scheduler.default_config with
    cache_dir = Some (Filename.concat dir "cache");
    journal = Some (Filename.concat dir "journal.ndjson");
    clock = Scheduler.Virtual;
  }

let result_of = function
  | Ok (Scheduler.Done { result; _ }) -> result
  | _ -> Alcotest.fail "job did not complete"

let recovery_reconciles () =
  let jobs =
    [
      Job.fault ~trials:40 ~seed:3 "NAND2";
      Job.fault ~trials:40 ~seed:4 "NOR2";
      Job.fault ~trials:40 ~seed:5 "NAND3";
      Job.fault ~trials:40 ~seed:6 "AOI21";
    ]
  in
  (* baseline: the uninterrupted answers *)
  let base_dir = fresh_dir "base" in
  let baseline =
    Scheduler.with_scheduler ~config:(vconfig base_dir) (fun t ->
        List.map
          (fun j ->
            let id = Result.get_ok (Scheduler.submit t j) in
            result_of (Scheduler.await t id))
          jobs)
  in
  rm_rf base_dir;
  (* the "crashed" run: all four journaled, only two settle.  A clean
     close never compacts, so the on-disk state after shutdown is exactly
     what kill -9 leaves (every record is fsync'd at append). *)
  let dir = fresh_dir "recover" in
  let config = vconfig dir in
  Scheduler.with_scheduler ~config (fun t ->
      List.iter (fun j -> ignore (Result.get_ok (Scheduler.submit t j))) jobs;
      ignore (Scheduler.run_next t);
      ignore (Scheduler.run_next t));
  (* restart: replay the journal against the surviving cache *)
  Scheduler.with_scheduler ~config (fun t ->
      let r =
        match Scheduler.recover t with
        | Ok r -> r
        | Error d -> Alcotest.failf "recover failed: %s" (Core.Diag.to_string d)
      in
      check_int "two completions rehydrated" 2 r.Scheduler.rec_settled;
      check_int "two interrupted jobs requeued" 2 r.Scheduler.rec_requeued;
      checkb "no torn record in a clean crash" false r.Scheduler.rec_truncated;
      let st = Scheduler.stats t in
      check_int "ledger sees the settled jobs" 2 st.Scheduler.done_;
      check_int "queue holds the requeued jobs" 2 st.Scheduler.queued;
      (* draining re-runs the requeued jobs bit-identically *)
      let after = Scheduler.drain t in
      let redone =
        List.filter_map
          (fun (c : Scheduler.completion) ->
            match c.Scheduler.outcome with
            | Scheduler.Done { cached = false; result; _ } -> Some result
            | _ -> None)
          after
      in
      checkb "requeued jobs re-run to the baseline documents" true
        (List.sort compare redone
        = List.sort compare (List.filteri (fun i _ -> i >= 2) baseline));
      check_int "nothing executed beyond the interrupted pair" 2
        (Scheduler.stats t).Scheduler.executed;
      (* the settled jobs answer from the cache without re-running *)
      List.iter2
        (fun j expect ->
          let id = Result.get_ok (Scheduler.submit t j) in
          match Scheduler.await t id with
          | Ok (Scheduler.Done { cached = true; result; _ }) ->
            checkb "cached answer is the pre-crash document" true
              (result = expect)
          | _ -> Alcotest.fail "settled job missed the cache")
        (List.filteri (fun i _ -> i < 2) jobs)
        (List.filteri (fun i _ -> i < 2) baseline);
      check_int "the cache-hit checks executed nothing" 2
        (Scheduler.stats t).Scheduler.executed);
  (* a second restart finds everything settled: compaction happened, so
     recovery is now a no-op on a journal of settles only *)
  Scheduler.with_scheduler ~config (fun t ->
      let r = Result.get_ok (Scheduler.recover t) in
      check_int "no pending submissions after compaction" 0
        r.Scheduler.rec_requeued);
  rm_rf dir

let recovery_tolerates_torn_tail () =
  let dir = fresh_dir "torn_rec" in
  let config = vconfig dir in
  let job = Job.fault ~trials:40 ~seed:3 "NAND2" in
  Scheduler.with_scheduler ~config (fun t ->
      ignore (Result.get_ok (Scheduler.submit t job)));
  let path = Option.get config.Scheduler.journal in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "1024 0badf00d {\"t\":\"sub";
  close_out oc;
  Scheduler.with_scheduler ~config (fun t ->
      let r = Result.get_ok (Scheduler.recover t) in
      checkb "torn record reported" true r.Scheduler.rec_truncated;
      check_int "intact submission recovered" 1 r.Scheduler.rec_requeued;
      (match Scheduler.journal_info t with
      | Some ji ->
        checkb "stats surface the truncation" true ji.Scheduler.ji_truncated;
        check_int "compaction ran" 1 ji.Scheduler.ji_compactions
      | None -> Alcotest.fail "journal configured but not reported");
      (* the compacted journal is whole again *)
      let l = Result.get_ok (Journal.load path) in
      checkb "compacted log parses cleanly" true (not l.Journal.truncated);
      check_int "exactly the pending job remains" 1
        (List.length l.Journal.entries));
  rm_rf dir

(* --- cache_store tmp leak (regression) --- *)

let tmp_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         (* any ".tmp." infix, same test the startup sweep applies *)
         let rec has i =
           i + 5 <= String.length f && (String.sub f i 5 = ".tmp." || has (i + 1))
         in
         has 0)

let cache_store_failure_leaves_no_tmp () =
  let dir = fresh_dir "leak" in
  let cache = Filename.concat dir "cache" in
  let config =
    {
      Scheduler.default_config with
      cache_dir = Some cache;
      clock = Scheduler.Virtual;
    }
  in
  let job = Job.fault ~trials:40 ~seed:3 "NAND2" in
  Scheduler.with_scheduler ~config (fun t ->
      (* force the final rename to fail: a directory squats on the
         destination path *)
      Unix.mkdir (Filename.concat cache (Job.digest job ^ ".json")) 0o755;
      let id = Result.get_ok (Scheduler.submit t job) in
      (match Scheduler.await t id with
      | Ok (Scheduler.Done { cached = false; _ }) -> ()
      | _ -> Alcotest.fail "job should complete despite the store failure");
      check_int "failed store leaves no tmp file" 0
        (List.length (tmp_files cache)));
  rm_rf dir

let orphan_tmps_swept_at_open () =
  let dir = fresh_dir "sweep" in
  let cache = Filename.concat dir "cache" in
  Unix.mkdir cache 0o755;
  let orphan = Filename.concat cache "deadbeef.json.tmp.12345" in
  Out_channel.with_open_bin orphan (fun oc ->
      Out_channel.output_string oc "{}");
  let keep = Filename.concat cache "deadbeef.json" in
  Out_channel.with_open_bin keep (fun oc -> Out_channel.output_string oc "{}");
  let config = { Scheduler.default_config with cache_dir = Some cache } in
  Scheduler.with_scheduler ~config (fun _ -> ());
  checkb "orphaned tmp swept" false (Sys.file_exists orphan);
  checkb "real cache entries untouched" true (Sys.file_exists keep);
  rm_rf dir

(* --- out-of-process dispatch API --- *)

let dispatch_api () =
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  Scheduler.with_scheduler ~config (fun t ->
      checkb "empty queue has nothing to dispatch" true
        (Scheduler.next_dispatch t = None);
      let j1 = Job.fault ~trials:40 ~seed:3 "NAND2" in
      let id = Result.get_ok (Scheduler.submit t j1) in
      let disp_id, digest =
        match Scheduler.next_dispatch t with
        | Some (Scheduler.Run { disp_id; disp_digest; _ }) -> (disp_id, disp_digest)
        | _ -> Alcotest.fail "expected a Run dispatch"
      in
      check_int "dispatch pops the submitted job" id disp_id;
      check_str "digest travels with the dispatch" (Job.digest j1) digest;
      check_int "counted in flight" 1 (Scheduler.dispatched_count t);
      (* a worker death returns it to the queue... *)
      Scheduler.requeue_dispatch t disp_id;
      check_int "requeue empties the in-flight set" 0
        (Scheduler.dispatched_count t);
      check_int "job is queued again" 1 (Scheduler.stats t).Scheduler.queued;
      (* ...and the same id dispatches again *)
      let again =
        match Scheduler.next_dispatch t with
        | Some (Scheduler.Run { disp_id; _ }) -> disp_id
        | _ -> Alcotest.fail "requeued job should dispatch again"
      in
      check_int "same id after requeue" id again;
      (* settle it with a worker-produced document *)
      let doc = Json.Obj [ ("answer", Json.int 42) ] in
      (match Scheduler.complete_dispatch t again ~wall_ms:7. (Ok doc) with
      | Some c -> (
        match c.Scheduler.outcome with
        | Scheduler.Done { cached = false; result; wall_ms } ->
          checkb "result is the worker document" true (result = doc);
          checkb "wall time recorded" true (wall_ms = 7.)
        | _ -> Alcotest.fail "expected Done")
      | None -> Alcotest.fail "completion lost");
      checkb "double-settle is rejected" true
        (Scheduler.complete_dispatch t again (Ok doc) = None);
      (* the settled result is now a cache hit: dedup across processes *)
      let id2 = Result.get_ok (Scheduler.submit t j1) in
      (match Scheduler.next_dispatch t with
      | Some (Scheduler.Resolved c) -> (
        check_int "duplicate resolves inline" id2 c.Scheduler.id;
        match c.Scheduler.outcome with
        | Scheduler.Done { cached = true; result; _ } ->
          checkb "cache answers the duplicate" true (result = doc)
        | _ -> Alcotest.fail "expected a cached Done")
      | _ -> Alcotest.fail "duplicate should resolve without dispatch");
      (* a failing worker fails the job, not the scheduler *)
      let j2 = Job.fault ~trials:40 ~seed:4 "NOR2" in
      let idf = Result.get_ok (Scheduler.submit t j2) in
      (match Scheduler.next_dispatch t with
      | Some (Scheduler.Run { disp_id; _ }) -> (
        let d = Core.Diag.error ~stage:"test" "boom" in
        match Scheduler.complete_dispatch t disp_id (Error d) with
        | Some { Scheduler.outcome = Scheduler.Failed _; id; _ } ->
          check_int "failure settles the dispatched id" idf id
        | _ -> Alcotest.fail "expected Failed")
      | _ -> Alcotest.fail "expected a Run dispatch");
      check_int "ledger counted the failure" 1
        (Scheduler.stats t).Scheduler.failed)

(* In-process execution is the one-slot case of dispatch, so a batch
   drained in-process and one driven by hand through next_dispatch /
   Runner.run / complete_dispatch settle identically, wall times
   included: under the virtual clock a computed job reports its declared
   cost on either path. *)
let dispatch_matches_in_process () =
  let config = { Scheduler.default_config with clock = Scheduler.Virtual } in
  let submit_batch t =
    let submit ?deadline_ms ~cost_ms job =
      ignore (Result.get_ok (Scheduler.submit t ?deadline_ms ~cost_ms job))
    in
    let fresh = Job.fault ~trials:40 ~seed:3 "NAND2" in
    submit ~cost_ms:3. fresh;
    (* the same digest again: a cache hit *)
    submit ~cost_ms:3. fresh;
    (* waits 3 ms behind the first job: expires *)
    submit ~deadline_ms:1. ~cost_ms:2. (Job.fault ~trials:40 ~seed:4 "NOR2");
    (* passes admission, fails to parse at run time *)
    submit ~cost_ms:5. (Job.flow (Job.Netlist_text "not a netlist"))
  in
  let in_process =
    Scheduler.with_scheduler ~config (fun t ->
        submit_batch t;
        Scheduler.drain t)
  in
  let by_hand =
    Scheduler.with_scheduler ~config (fun t ->
        submit_batch t;
        let pool = Parallel.Pool.create ~domains:1 () in
        let pass_cache = Core.Pass.cache_create () in
        Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool)
        @@ fun () ->
        let rec loop acc =
          match Scheduler.next_dispatch t with
          | None -> List.rev acc
          | Some (Scheduler.Resolved c) -> loop (c :: acc)
          | Some (Scheduler.Run { disp_id; disp_job; _ }) -> (
            let result = Service.Runner.run ~pool ~pass_cache disp_job in
            match Scheduler.complete_dispatch t disp_id result with
            | Some c -> loop (c :: acc)
            | None -> Alcotest.fail "dispatched job was not settled")
        in
        loop [])
  in
  (match List.map (fun (c : Scheduler.completion) -> c.Scheduler.outcome) by_hand with
  | [
   Scheduler.Done { cached = false; wall_ms = 3.; _ };
   Scheduler.Done { cached = true; wall_ms = 0.; _ };
   Scheduler.Expired _;
   Scheduler.Failed _;
  ] ->
    ()
  | _ -> Alcotest.fail "expected fresh, cached, expired and failed, in order");
  checkb "equal completion records" true (in_process = by_hand)

(* --- the worker pool, end to end --- *)

(* the test binary runs in _build/default/test; the CLI is a declared
   dune dep so the relative path is stable *)
let cli = "../bin/cnfet_dk.exe"

let worker_argv = [| cli; "worker"; "--domains"; "1" |]

let worker_pool_executes () =
  let config = { Scheduler.default_config with capacity = 16 } in
  Scheduler.with_scheduler ~config (fun t ->
      let w = Workers.create ~argv:worker_argv ~n:2 in
      Fun.protect
        ~finally:(fun () -> Workers.shutdown w)
        (fun () ->
          check_int "both workers alive" 2 (Workers.active w);
          let jobs =
            [
              Job.fault ~trials:40 ~seed:3 "NAND2";
              Job.fault ~trials:40 ~seed:4 "NOR2";
              (* a duplicate digest: must dedup, not double-run *)
              Job.fault ~trials:40 ~seed:3 "NAND2";
            ]
          in
          List.iter
            (fun j -> ignore (Result.get_ok (Scheduler.submit t j)))
            jobs;
          let got = ref [] in
          Workers.drain w t ~route:(fun c -> got := c :: !got);
          check_int "every submission completed" 3 (List.length !got);
          let cached, fresh =
            List.partition
              (fun (c : Scheduler.completion) ->
                match c.Scheduler.outcome with
                | Scheduler.Done { cached; _ } -> cached
                | _ -> Alcotest.fail "worker job did not finish Done")
              !got
          in
          check_int "two distinct digests executed" 2 (List.length fresh);
          check_int "the duplicate was a dedup hit" 1 (List.length cached);
          (* the twins carry the same result document *)
          let doc (c : Scheduler.completion) =
            match c.Scheduler.outcome with
            | Scheduler.Done { result; _ } -> result
            | _ -> assert false
          in
          let nand =
            List.filter
              (fun (c : Scheduler.completion) ->
                Job.digest c.Scheduler.job
                = Job.digest (List.hd jobs))
              !got
          in
          checkb "dedup twins agree bit for bit" true
            (match nand with
            | [ a; b ] -> doc a = doc b
            | _ -> false);
          let stats = Workers.stats_json w in
          checkb "stats name the pool" true
            (List.mem_assoc "workers_active" stats
            && List.mem_assoc "workers" stats)))

let worker_death_requeues () =
  let config = { Scheduler.default_config with capacity = 16 } in
  Scheduler.with_scheduler ~config (fun t ->
      let w = Workers.create ~argv:worker_argv ~n:2 in
      Fun.protect
        ~finally:(fun () -> Workers.shutdown w)
        (fun () ->
          (* heavy enough to still be in flight when the kill lands *)
          let jobs =
            [
              Job.fault ~trials:60000 ~seed:3 "NAND2";
              Job.fault ~trials:60000 ~seed:4 "NOR2";
              Job.fault ~trials:60000 ~seed:5 "NAND3";
            ]
          in
          List.iter
            (fun j -> ignore (Result.get_ok (Scheduler.submit t j)))
            jobs;
          let got = ref [] in
          (* place jobs on the workers, then kill one mid-job *)
          Workers.dispatch w t ~route:(fun c -> got := c :: !got);
          check_int "two jobs in flight" 2 (Workers.in_flight w);
          (match Workers.pids w with
          | pid :: _ -> Unix.kill pid Sys.sigkill
          | [] -> Alcotest.fail "no live workers");
          Workers.drain w t ~route:(fun c -> got := c :: !got);
          check_int "all jobs completed despite the death" 3
            (List.length !got);
          List.iter
            (fun (c : Scheduler.completion) ->
              match c.Scheduler.outcome with
              | Scheduler.Done _ -> ()
              | _ -> Alcotest.fail "a job was lost to the worker death")
            !got;
          checkb "the dead slot was respawned" true (Workers.restarts w >= 1);
          check_int "pool is back to strength" 2 (Workers.active w)))

let suite =
  [
    Alcotest.test_case "journal disk roundtrip" `Quick journal_roundtrip;
    Alcotest.test_case "journal torn tail truncated" `Quick journal_torn_tail;
    Alcotest.test_case "journal compaction" `Quick journal_compaction;
    Alcotest.test_case "recovery reconciles exactly" `Slow recovery_reconciles;
    Alcotest.test_case "recovery tolerates a torn tail" `Quick
      recovery_tolerates_torn_tail;
    Alcotest.test_case "cache store failure leaves no tmp" `Quick
      cache_store_failure_leaves_no_tmp;
    Alcotest.test_case "orphaned cache tmps swept at open" `Quick
      orphan_tmps_swept_at_open;
    Alcotest.test_case "out-of-process dispatch API" `Quick dispatch_api;
    Alcotest.test_case "dispatch matches in-process" `Quick
      dispatch_matches_in_process;
    Alcotest.test_case "worker pool executes and dedups" `Slow
      worker_pool_executes;
    Alcotest.test_case "worker death requeues in-flight job" `Slow
      worker_death_requeues;
  ]
