type priority = High | Normal | Low

type clock_mode = Wall | Virtual

type config = {
  domains : int;
  capacity : int;
  cache_dir : string option;
  clock : clock_mode;
  journal : string option;
}

let default_config =
  {
    domains = 1;
    capacity = 64;
    cache_dir = None;
    clock = Wall;
    journal = None;
  }

(* The virtual-clock advance of a job submitted without a cost. *)
let default_cost_ms = 1.0

type terminal =
  | Done of { cached : bool; wall_ms : float; result : Json.t }
  | Failed of Core.Diag.t
  | Cancelled
  | Expired of { late_ms : float }

type state = Queued | Running | Finished of terminal

type completion = {
  id : int;
  job : Job.t;
  priority : priority;
  outcome : terminal;
  queue_wait_ms : float;
  finished_at_ms : float;
  trace_id : string;
}

type stats = {
  queued : int;
  queued_high : int;
  queued_normal : int;
  queued_low : int;
  executed : int;
  cache_hits : int;
  done_ : int;
  failed : int;
  cancelled : int;
  expired : int;
  rejected : int;
  capacity : int;
}

type jrec = {
  jid : int;
  jjob : Job.t;
  jdigest : string;
  jpriority : priority;
  jtrace : string;
  arrival_ms : float;
  deadline_ms : float option;
  cost_ms : float;
  mutable jstate : state;
}

type t = {
  config : config;
  (* serialises every public entry point: multiple connections (or
     threads) drive one scheduler through the facade at the bottom of
     this file.  All functions above that facade assume the lock is held
     (or the scheduler is confined to one thread). *)
  lock : Mutex.t;
  pool : Parallel.Pool.t;
  (* one FIFO per class; dequeue scans High, Normal, Low in order *)
  q_high : jrec Queue.t;
  q_normal : jrec Queue.t;
  q_low : jrec Queue.t;
  jobs : (int, jrec) Hashtbl.t;
  mem_cache : (string, Json.t) Hashtbl.t;
  created_wall_ms : float;  (* wall clock at create, for uptime *)
  mutable vnow_ms : float;  (* virtual clock; unused in Wall mode *)
  mutable next_id : int;
  mutable queued_count : int;
  queued_by : int array;  (* per-class depth: High, Normal, Low *)
  mutable executed : int;
  mutable cache_hits : int;
  mutable done_count : int;
  mutable failed_count : int;
  mutable cancelled_count : int;
  mutable expired_count : int;
  mutable rejected_count : int;
  mutable closed : bool;
  (* write-ahead journal (config.journal); None when unconfigured or
     after an append failure disabled it *)
  mutable jnl : Journal.t option;
  mutable jnl_settled : int;  (* settled submissions seen by recover *)
  mutable jnl_requeued : int;  (* pending submissions re-enqueued *)
  mutable jnl_truncated : bool;  (* recover discarded a torn tail *)
  mutable jnl_compactions : int;
  (* jobs handed out through next_dispatch and not yet completed or
     requeued: id -> (queue wait, clock reading) at dispatch *)
  dispatched : (int, float * float) Hashtbl.t;
}

let stage = "service.scheduler"

let priority_string = function High -> "high" | Normal -> "normal" | Low -> "low"

let priority_of_string = function
  | "high" -> Some High
  | "normal" -> Some Normal
  | "low" -> Some Low
  | _ -> None

let queue_for t = function
  | High -> t.q_high
  | Normal -> t.q_normal
  | Low -> t.q_low

let class_index = function High -> 0 | Normal -> 1 | Low -> 2

let now_ms t =
  match t.config.clock with
  | Virtual -> t.vnow_ms
  | Wall -> Int64.to_float (Telemetry.now_ns ()) /. 1e6

let advance t ms =
  match t.config.clock with
  | Virtual -> t.vnow_ms <- t.vnow_ms +. ms
  | Wall -> ()

(* [cache_store] writes through [<digest>.json.tmp.<pid>]; a writer that
   died between creating the tmp and renaming it leaves an orphan no one
   will ever read.  Swept when the cache directory is (re)opened. *)
let sweep_orphan_tmps dir =
  let is_tmp name =
    (* matches "<digest>.json.tmp.<pid>" without matching digests *)
    let rec find i =
      if i + 5 > String.length name then false
      else if String.sub name i 5 = ".tmp." then true
      else find (i + 1)
    in
    find 0
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        if is_tmp name then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      names

let create ?(config = default_config) () =
  if config.domains < 1 then
    invalid_arg "Scheduler.create: domains must be >= 1";
  if config.capacity < 1 then
    invalid_arg "Scheduler.create: capacity must be >= 1";
  Option.iter
    (fun dir ->
      Journal.mkdir_p dir;
      sweep_orphan_tmps dir)
    config.cache_dir;
  let jnl =
    match config.journal with
    | None -> None
    | Some path -> (
      match Journal.open_append path with
      | Ok j -> Some j
      | Error d -> raise (Core.Diag.Failure d))
  in
  {
    config;
    lock = Mutex.create ();
    pool = Parallel.Pool.create ~domains:config.domains ();
    q_high = Queue.create ();
    q_normal = Queue.create ();
    q_low = Queue.create ();
    jobs = Hashtbl.create 64;
    mem_cache = Hashtbl.create 64;
    created_wall_ms = Int64.to_float (Telemetry.now_ns ()) /. 1e6;
    vnow_ms = 0.;
    next_id = 0;
    queued_count = 0;
    queued_by = Array.make 3 0;
    executed = 0;
    cache_hits = 0;
    done_count = 0;
    failed_count = 0;
    cancelled_count = 0;
    expired_count = 0;
    rejected_count = 0;
    closed = false;
    jnl;
    jnl_settled = 0;
    jnl_requeued = 0;
    jnl_truncated = false;
    jnl_compactions = 0;
    dispatched = Hashtbl.create 8;
  }

let shutdown t =
  Mutex.lock t.lock;
  let was_closed = t.closed in
  t.closed <- true;
  (* closing never truncates or compacts: the on-disk journal must look
     exactly like a crash left it, so recovery has one code path *)
  Option.iter Journal.close t.jnl;
  Mutex.unlock t.lock;
  (* join the pool outside the lock: a worker must never need it, but a
     status query racing the shutdown should not block on the join *)
  if not was_closed then Parallel.Pool.shutdown t.pool

let with_scheduler ?config f =
  let t = create ?config () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Admission                                                          *)

let reject t ?trace_id ~job diag =
  t.rejected_count <- t.rejected_count + 1;
  Telemetry.counter_add "service.rejected" 1;
  Telemetry.Events.emit ?trace_id "job.rejected"
    ~attrs:
      [
        ("job", Telemetry.String (Job.describe job));
        ("reason", Telemetry.String diag.Core.Diag.message);
      ];
  Error diag

(* A submission that does not carry a trace id gets a deterministic one:
   the job id (deterministic under replay) plus a digest prefix, so the
   id is stable across reruns yet unique per submission. *)
let fresh_trace_id id digest =
  let prefix =
    let hex =
      match String.index_opt digest '-' with
      | Some i when i + 1 < String.length digest ->
        String.sub digest (i + 1) (String.length digest - i - 1)
      | _ -> digest
    in
    String.sub hex 0 (min 8 (String.length hex))
  in
  Printf.sprintf "t%d-%s" id prefix

let jappend t entry = Option.iter (fun j -> Journal.append j entry) t.jnl

(* Every change to the queued set goes through [enqueue] and [take], so
   the total depth and the per-class depths cannot drift apart. *)
let enqueue t r =
  r.jstate <- Queued;
  Queue.push r (queue_for t r.jpriority);
  t.queued_count <- t.queued_count + 1;
  let ci = class_index r.jpriority in
  t.queued_by.(ci) <- t.queued_by.(ci) + 1

(* [r] leaves the queued set.  A cancelled record stays in its FIFO and
   is dropped lazily by [dequeue]. *)
let take t r =
  t.queued_count <- t.queued_count - 1;
  let ci = class_index r.jpriority in
  t.queued_by.(ci) <- t.queued_by.(ci) - 1

let outcome_string = function
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"
  | Expired _ -> "expired"

let submit t ?(priority = Normal) ?deadline_ms ?cost_ms ?trace_id job =
  let reject t d = reject t ?trace_id ~job d in
  if t.closed then
    reject t (Core.Diag.error ~stage "scheduler is shut down")
  else
    match Job.validate job with
    | Error d -> reject t (Core.Diag.with_stage stage d)
    | Ok () ->
      let bad_positive name v =
        reject t
          (Core.Diag.errorf ~stage
             ~context:[ ("job", Job.describe job) ]
             "%s must be positive and finite, got %g" name v)
      in
      (match (deadline_ms, cost_ms) with
      | Some d, _ when not (d > 0. && Float.is_finite d) ->
        bad_positive "deadline_ms" d
      | _, Some c when not (c > 0. && Float.is_finite c) ->
        bad_positive "cost_ms" c
      | _ ->
        if t.queued_count >= t.config.capacity then
          reject t
            (Core.Diag.errorf ~stage
               ~context:
                 [
                   ("capacity", string_of_int t.config.capacity);
                   ("queued", string_of_int t.queued_count);
                   ("priority", priority_string priority);
                   ("job", Job.describe job);
                 ]
               "queue full: %d of %d jobs waiting" t.queued_count
               t.config.capacity)
        else begin
          let id = t.next_id in
          t.next_id <- id + 1;
          let digest = Job.digest job in
          let jtrace =
            match trace_id with
            | Some tid -> tid
            | None -> fresh_trace_id id digest
          in
          let r =
            {
              jid = id;
              jjob = job;
              jdigest = digest;
              jpriority = priority;
              jtrace;
              arrival_ms = now_ms t;
              deadline_ms;
              cost_ms =
                Option.value cost_ms ~default:default_cost_ms;
              jstate = Queued;
            }
          in
          Hashtbl.replace t.jobs id r;
          enqueue t r;
          (* the WAL write happens before the submission is acknowledged:
             an accepted job survives a crash *)
          jappend t
            (Journal.Submit
               {
                 sid = id;
                 sjob = job;
                 sdigest = digest;
                 strace = jtrace;
                 spriority = priority_string priority;
                 sdeadline_ms = deadline_ms;
                 scost_ms = cost_ms;
               });
          Telemetry.counter_add "service.submitted" 1;
          Telemetry.Events.emit ~trace_id:jtrace "job.submitted"
            ~attrs:
              [
                ("id", Telemetry.Int id);
                ("job_kind", Telemetry.String (Job.kind job));
                ("priority", Telemetry.String (priority_string priority));
              ];
          Ok id
        end)

let cancel t id =
  match Hashtbl.find_opt t.jobs id with
  | None -> Core.Diag.failf ~stage "unknown job id %d" id
  | Some r -> (
    match r.jstate with
    | Queued ->
      take t r;
      r.jstate <- Finished Cancelled;
      t.cancelled_count <- t.cancelled_count + 1;
      jappend t
        (Journal.Settle
           { tid = r.jid; tdigest = r.jdigest; toutcome = "cancelled" });
      Telemetry.counter_add "service.cancelled" 1;
      Telemetry.Events.emit ~trace_id:r.jtrace "job.cancelled"
        ~attrs:[ ("id", Telemetry.Int r.jid) ];
      Ok ()
    | Running ->
      Core.Diag.failf ~stage "job %d is already running (no preemption)" id
    | Finished _ -> Core.Diag.failf ~stage "job %d already finished" id)

let state t id =
  match Hashtbl.find_opt t.jobs id with
  | Some r -> Ok r.jstate
  | None -> Core.Diag.failf ~stage "unknown job id %d" id

(* ------------------------------------------------------------------ *)
(* Result cache                                                       *)

let cache_path t digest =
  Option.map (fun dir -> Filename.concat dir (digest ^ ".json")) t.config.cache_dir

let cache_lookup t digest =
  match Hashtbl.find_opt t.mem_cache digest with
  | Some _ as hit -> hit
  | None -> (
    match cache_path t digest with
    | None -> None
    | Some path when Sys.file_exists path -> (
      let read () =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Json.of_string (read ()) with
      | Ok v ->
        Hashtbl.replace t.mem_cache digest v;
        Some v
      | Error _ | (exception Sys_error _) -> None)
    | Some _ -> None)

let cache_store t digest result =
  Hashtbl.replace t.mem_cache digest result;
  match cache_path t digest with
  | None -> ()
  | Some path -> (
    let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
    match
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Json.to_string result));
      Sys.rename tmp path
    with
    | () -> ()
    | exception (Sys_error _ | Unix.Unix_error _) ->
      (* the write (or the rename) failed mid-way: the half-written tmp
         must not outlive the attempt *)
      (try Sys.remove tmp with Sys_error _ -> ()))

(* ------------------------------------------------------------------ *)
(* Dequeue and settlement                                             *)

let wait_buckets = [| 1.; 10.; 100.; 1000.; 10_000. |]

let dequeue t =
  (* first still-Queued record in policy order; cancelled records are
     dropped lazily here *)
  let rec pop q =
    match Queue.take_opt q with
    | None -> None
    | Some r -> if r.jstate = Queued then Some r else pop q
  in
  match pop t.q_high with
  | Some _ as r -> r
  | None -> (
    match pop t.q_normal with Some _ as r -> r | None -> pop t.q_low)

let finish t r outcome ~queue_wait_ms =
  r.jstate <- Finished outcome;
  jappend t
    (Journal.Settle
       { tid = r.jid; tdigest = r.jdigest; toutcome = outcome_string outcome });
  let event, extra =
    match outcome with
    | Done { cached; _ } ->
      t.done_count <- t.done_count + 1;
      ("job.done", [ ("cached", Telemetry.Bool cached) ])
    | Failed d ->
      t.failed_count <- t.failed_count + 1;
      ("job.failed", [ ("reason", Telemetry.String d.Core.Diag.message) ])
    | Cancelled ->
      t.cancelled_count <- t.cancelled_count + 1;
      ("job.cancelled", [])
    | Expired { late_ms } ->
      t.expired_count <- t.expired_count + 1;
      Telemetry.counter_add "service.expired" 1;
      Telemetry.instant "service.expired"
        ~attrs:
          [
            ("trace_id", Telemetry.String r.jtrace);
            ("late_ms", Telemetry.Float late_ms);
          ];
      ("job.expired", [ ("late_ms", Telemetry.Float late_ms) ])
  in
  Telemetry.Events.emit ~trace_id:r.jtrace event
    ~attrs:
      (("id", Telemetry.Int r.jid)
      :: ("queue_wait_ms", Telemetry.Float queue_wait_ms)
      :: extra);
  {
    id = r.jid;
    job = r.jjob;
    priority = r.jpriority;
    outcome;
    queue_wait_ms;
    finished_at_ms = now_ms t;
    trace_id = r.jtrace;
  }

(* ------------------------------------------------------------------ *)
(* Dispatch: every job, in-process or on a worker process, goes from the
   queue to its settlement through [next_dispatch] and
   [complete_dispatch].  The dequeue policy, the deadline check, the
   cache and the journal live here once; [run_next] runs the job in
   between, and the worker-sharding server ships it to a child process
   (or puts it back with [requeue_dispatch] when the child dies). *)

type dispatch =
  | Run of {
      disp_id : int;
      disp_job : Job.t;
      disp_digest : string;
      disp_trace : string;
    }
  | Resolved of completion

let next_dispatch t =
  match dequeue t with
  | None -> None
  | Some r ->
    take t r;
    let queue_wait_ms = now_ms t -. r.arrival_ms in
    Telemetry.histogram_observe "service.queue_wait_ms" ~buckets:wait_buckets
      queue_wait_ms;
    Some
      (match r.deadline_ms with
      | Some d when queue_wait_ms > d ->
        Resolved
          (finish t r (Expired { late_ms = queue_wait_ms -. d }) ~queue_wait_ms)
      | _ -> (
        r.jstate <- Running;
        Telemetry.Events.emit ~trace_id:r.jtrace "job.started"
          ~attrs:
            [
              ("id", Telemetry.Int r.jid);
              ("queue_wait_ms", Telemetry.Float queue_wait_ms);
            ];
        match cache_lookup t r.jdigest with
        | Some result ->
          t.cache_hits <- t.cache_hits + 1;
          Telemetry.counter_add "service.cache_hits" 1;
          Telemetry.instant "service.cache_hit"
            ~attrs:
              [
                ("digest", Telemetry.String r.jdigest);
                ("trace_id", Telemetry.String r.jtrace);
              ];
          Telemetry.Events.emit ~trace_id:r.jtrace "job.cache_hit"
            ~attrs:
              [
                ("id", Telemetry.Int r.jid);
                ("digest", Telemetry.String r.jdigest);
              ];
          Resolved
            (finish t r (Done { cached = true; wall_ms = 0.; result })
               ~queue_wait_ms)
        | None ->
          Hashtbl.replace t.dispatched r.jid (queue_wait_ms, now_ms t);
          Run
            {
              disp_id = r.jid;
              disp_job = r.jjob;
              disp_digest = r.jdigest;
              disp_trace = r.jtrace;
            }))

let complete_dispatch t id ?wall_ms result =
  match Hashtbl.find_opt t.dispatched id with
  | None -> None
  | Some (queue_wait_ms, started_ms) ->
    Hashtbl.remove t.dispatched id;
    let r = Hashtbl.find t.jobs id in
    t.executed <- t.executed + 1;
    advance t r.cost_ms;
    let wall_ms =
      match (wall_ms, t.config.clock) with
      | Some ms, _ -> ms
      | None, Virtual -> r.cost_ms
      | None, Wall -> now_ms t -. started_ms
    in
    Some
      (match result with
      | Ok result ->
        cache_store t r.jdigest result;
        finish t r (Done { cached = false; wall_ms; result }) ~queue_wait_ms
      | Error d -> finish t r (Failed d) ~queue_wait_ms)

(* In-process execution is the one-slot case of dispatch: the job runs
   right here, on the pool, between the two calls. *)
let run_next t =
  match next_dispatch t with
  | None -> None
  | Some (Resolved c) -> Some c
  | Some (Run { disp_id; disp_job; disp_trace; _ }) ->
    let r = Hashtbl.find t.jobs disp_id in
    let queue_wait_ms, _ = Hashtbl.find t.dispatched disp_id in
    let attrs =
      [
        ("job", Telemetry.String (Job.describe disp_job));
        ("kind", Telemetry.String (Job.kind disp_job));
        ("priority", Telemetry.String (priority_string r.jpriority));
        ("queue_wait_ms", Telemetry.Float queue_wait_ms);
        ("trace_id", Telemetry.String disp_trace);
      ]
    in
    let result =
      Telemetry.with_span "service.job" ~attrs (fun () ->
          Runner.run ~pool:t.pool disp_job)
    in
    complete_dispatch t disp_id result

let requeue_dispatch t id =
  if Hashtbl.mem t.dispatched id then begin
    Hashtbl.remove t.dispatched id;
    let r = Hashtbl.find t.jobs id in
    (* back of its class FIFO: re-arrivals queue behind their peers,
       and the journal still holds the unsettled Submit record *)
    enqueue t r;
    Telemetry.counter_add "service.requeued" 1;
    Telemetry.Events.emit ~trace_id:r.jtrace "job.requeued"
      ~attrs:[ ("id", Telemetry.Int r.jid) ]
  end

let dispatched_count t = Hashtbl.length t.dispatched

(* ------------------------------------------------------------------ *)
(* Crash recovery: replay the journal against the persisted digest
   cache.  Settled submissions whose results the cache still holds
   rehydrate the ledger as finished records (fresh ids — pre-crash ids
   belong to pre-crash clients); unsettled ones — and settled ones whose
   results are gone — re-enqueue in original order, which preserves the
   per-class FIFO discipline.  Determinism makes the re-runs exact: a
   re-executed job produces the byte-identical result document.  The
   pass ends with a compaction: the journal is rewritten to hold exactly
   the still-pending submissions. *)

type recovery = {
  rec_settled : int;
  rec_requeued : int;
  rec_truncated : bool;
}

let recover t =
  match t.config.journal with
  | None -> Ok { rec_settled = 0; rec_requeued = 0; rec_truncated = false }
  | Some path -> (
    match Journal.load path with
    | Error d -> Error d
    | Ok { Journal.entries; truncated } ->
      (* the handle is reopened after the compaction rewrite below *)
      Option.iter Journal.close t.jnl;
      t.jnl <- None;
      let settled : (int, string) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (function
          | Journal.Settle { tid; toutcome; _ } ->
            Hashtbl.replace settled tid toutcome
          | Journal.Submit _ -> ())
        entries;
      let nsettled = ref 0 and nrequeued = ref 0 in
      let pending = ref [] in
      List.iter
        (function
          | Journal.Settle _ -> ()
          | Journal.Submit
              { sid; sjob; sdigest; strace; spriority; sdeadline_ms; scost_ms }
            ->
            let id = t.next_id in
            t.next_id <- id + 1;
            let priority =
              Option.value ~default:Normal (priority_of_string spriority)
            in
            let jrec jstate =
              {
                jid = id;
                jjob = sjob;
                jdigest = Job.digest sjob;
                jpriority = priority;
                jtrace = strace;
                arrival_ms = now_ms t;
                deadline_ms = sdeadline_ms;
                cost_ms = Option.value scost_ms ~default:default_cost_ms;
                jstate;
              }
            in
            let rehydrate outcome =
              incr nsettled;
              let r = jrec (Finished outcome) in
              Hashtbl.replace t.jobs id r;
              match outcome with
              | Done _ -> t.done_count <- t.done_count + 1
              | Failed _ -> t.failed_count <- t.failed_count + 1
              | Cancelled -> t.cancelled_count <- t.cancelled_count + 1
              | Expired _ -> t.expired_count <- t.expired_count + 1
            in
            let requeue () =
              incr nrequeued;
              let r = jrec Queued in
              Hashtbl.replace t.jobs id r;
              enqueue t r;
              pending :=
                Journal.Submit
                  {
                    sid = id;
                    sjob;
                    sdigest;
                    strace;
                    spriority;
                    sdeadline_ms;
                    scost_ms;
                  }
                :: !pending;
              Telemetry.Events.emit ~trace_id:strace "job.recovered"
                ~attrs:[ ("id", Telemetry.Int id) ]
            in
            (match Hashtbl.find_opt settled sid with
            | Some "done" -> (
              match cache_lookup t sdigest with
              | Some result ->
                rehydrate (Done { cached = true; wall_ms = 0.; result })
              | None ->
                (* completed before the crash but the cache no longer has
                   the result: run it again (determinism: same bytes) *)
                requeue ())
            | Some "failed" ->
              rehydrate
                (Failed
                   (Core.Diag.error ~stage
                      ~context:[ ("digest", sdigest) ]
                      "failed before restart (journal settle record)"))
            | Some "cancelled" -> rehydrate Cancelled
            | Some "expired" -> rehydrate (Expired { late_ms = 0. })
            | Some _ | None -> requeue ()))
        entries;
      let rewrite_result = Journal.rewrite path (List.rev !pending) in
      t.jnl_compactions <- t.jnl_compactions + 1;
      (match Journal.open_append path with
      | Ok j -> t.jnl <- Some j
      | Error _ -> Telemetry.counter_add "service.journal_errors" 1);
      t.jnl_settled <- t.jnl_settled + !nsettled;
      t.jnl_requeued <- t.jnl_requeued + !nrequeued;
      t.jnl_truncated <- t.jnl_truncated || truncated;
      Telemetry.counter_add "service.journal_recovered" !nsettled;
      Telemetry.counter_add "service.journal_requeued" !nrequeued;
      Telemetry.Events.emit "journal.recovered"
        ~attrs:
          [
            ("settled", Telemetry.Int !nsettled);
            ("requeued", Telemetry.Int !nrequeued);
            ("truncated", Telemetry.Bool truncated);
          ];
      (match rewrite_result with
      | Error d -> Error d
      | Ok () ->
        Ok
          {
            rec_settled = !nsettled;
            rec_requeued = !nrequeued;
            rec_truncated = truncated;
          }))

type journal_info = {
  ji_path : string;
  ji_healthy : bool;
  ji_appends : int;
  ji_settled : int;
  ji_requeued : int;
  ji_truncated : bool;
  ji_compactions : int;
}

let journal_info t =
  match t.config.journal with
  | None -> None
  | Some path ->
    Some
      {
        ji_path = path;
        ji_healthy = (match t.jnl with Some j -> Journal.healthy j | None -> false);
        ji_appends = (match t.jnl with Some j -> Journal.appends j | None -> 0);
        ji_settled = t.jnl_settled;
        ji_requeued = t.jnl_requeued;
        ji_truncated = t.jnl_truncated;
        ji_compactions = t.jnl_compactions;
      }

(* ------------------------------------------------------------------ *)
(* Thread-safe facade.

   Everything above runs unlocked; the wrappers below shadow the entry
   points with mutex-guarded versions, so several server connections (or
   threads) can drive one scheduler without corrupting the queues or the
   counters.  [run_next] holds the lock across the job it executes —
   batched, one-at-a-time execution is the model (parallelism lives
   inside jobs, on the pool), and it is what keeps replay deterministic.
   [drain] and [await] take the lock once per step, never nesting it, so
   they interleave fairly with concurrent submissions. *)

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let submit t ?priority ?deadline_ms ?cost_ms ?trace_id job =
  with_lock t (fun () -> submit t ?priority ?deadline_ms ?cost_ms ?trace_id job)

let cancel t id = with_lock t (fun () -> cancel t id)
let state t id = with_lock t (fun () -> state t id)
let run_next t = with_lock t (fun () -> run_next t)
let now_ms t = with_lock t (fun () -> now_ms t)
let next_dispatch t = with_lock t (fun () -> next_dispatch t)

let complete_dispatch t id ?wall_ms result =
  with_lock t (fun () -> complete_dispatch t id ?wall_ms result)

let requeue_dispatch t id = with_lock t (fun () -> requeue_dispatch t id)
let dispatched_count t = with_lock t (fun () -> dispatched_count t)
let recover t = with_lock t (fun () -> recover t)
let journal_info t = with_lock t (fun () -> journal_info t)

let trace_id t id =
  with_lock t (fun () ->
      Option.map (fun r -> r.jtrace) (Hashtbl.find_opt t.jobs id))

let uptime_ms t =
  (* wall-clock age regardless of the scheduling clock: the virtual
     clock freezes between jobs, which is useless for "how long has this
     server been up" *)
  (Int64.to_float (Telemetry.now_ns ()) /. 1e6) -. t.created_wall_ms

let drain ?on_completion t =
  let rec loop acc =
    match run_next t with
    | None -> List.rev acc
    | Some c ->
      Option.iter (fun f -> f c) on_completion;
      loop (c :: acc)
  in
  loop []

let await t id =
  let rec loop () =
    match state t id with
    | Error d -> Error d
    | Ok (Finished outcome) -> Ok outcome
    | Ok _ -> (
      match run_next t with
      | Some _ -> loop ()
      | None ->
        (* queued but not in any FIFO: impossible unless state was
           corrupted externally *)
        Core.Diag.failf ~stage "job %d is stuck (queue empty)" id)
  in
  loop ()

let stats t =
  with_lock t (fun () ->
      {
        queued = t.queued_count;
        queued_high = t.queued_by.(0);
        queued_normal = t.queued_by.(1);
        queued_low = t.queued_by.(2);
        executed = t.executed;
        cache_hits = t.cache_hits;
        done_ = t.done_count;
        failed = t.failed_count;
        cancelled = t.cancelled_count;
        expired = t.expired_count;
        rejected = t.rejected_count;
        capacity = t.config.capacity;
      })

(* ------------------------------------------------------------------ *)
(* Replay                                                             *)

type request = {
  req_job : Job.t;
  req_priority : priority;
  req_deadline_ms : float option;
  req_cost_ms : float option;
  req_trace_id : string option;
}

let request ?(priority = Normal) ?deadline_ms ?cost_ms ?trace_id job =
  {
    req_job = job;
    req_priority = priority;
    req_deadline_ms = deadline_ms;
    req_cost_ms = cost_ms;
    req_trace_id = trace_id;
  }

type replay_result = {
  completions : completion list;
  rejections : (int * Core.Diag.t) list;
}

let shuffle ~seed arr =
  let rng = Parallel.Split_rng.state ~seed ~stream:0 in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let replay ?(config = default_config) ~seed requests =
  let config = { config with clock = Virtual } in
  with_scheduler ~config (fun t ->
      (* indices shuffled, not the requests, so rejections can report the
         position in the arrival order *)
      let order = Array.init (List.length requests) Fun.id in
      shuffle ~seed order;
      let reqs = Array.of_list requests in
      let rejections = ref [] in
      Array.iter
        (fun i ->
          let r = reqs.(i) in
          (match
             submit t ~priority:r.req_priority ?deadline_ms:r.req_deadline_ms
               ?cost_ms:r.req_cost_ms ?trace_id:r.req_trace_id r.req_job
           with
          | Ok _ -> ()
          | Error d -> rejections := (i, d) :: !rejections);
          advance t 1.0)
        order;
      let completions = drain t in
      { completions; rejections = List.rev !rejections })
