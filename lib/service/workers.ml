let stage = "service.workers"

let max_attempts = 3

type current = { c_id : int; c_digest : string }

type worker = {
  widx : int;
  mutable pid : int;
  mutable fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable current : current option;
  mutable alive : bool;
  mutable jobs_done : int;
}

type t = {
  argv : string array;
  slots : worker array;
  (* job id -> dispatch attempts, for the poison-job guard *)
  attempts : (int, int) Hashtbl.t;
  (* digest -> parked duplicate job ids (requeued when the twin settles) *)
  parked : (string, int list ref) Hashtbl.t;
  (* digest -> worker slot currently running it *)
  running : (string, int) Hashtbl.t;
  max_restarts : int;
  mutable restarts : int;
  mutable gave_up : bool;
  mutable shutting_down : bool;
}

(* ------------------------------------------------------------------ *)
(* Spawning                                                           *)

let spawn_slot t i =
  let parent_fd, child_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  (* the child's end becomes its stdio; the parent's end must not leak
     into siblings (cloexec), or a dead worker's EOF would never arrive *)
  let pid = Unix.create_process t.argv.(0) t.argv child_fd child_fd Unix.stderr in
  Unix.close child_fd;
  Unix.set_nonblock parent_fd;
  let w = t.slots.(i) in
  w.pid <- pid;
  w.fd <- parent_fd;
  Buffer.clear w.inbuf;
  w.current <- None;
  w.alive <- true;
  Telemetry.counter_add "service.worker_spawned" 1;
  Telemetry.Events.emit "worker.spawn"
    ~attrs:[ ("slot", Telemetry.Int i); ("pid", Telemetry.Int pid) ]

let create ~argv ~n =
  if n < 1 then invalid_arg "Workers.create: n must be >= 1";
  if Array.length argv = 0 then invalid_arg "Workers.create: empty argv";
  let t =
    {
      argv;
      slots =
        Array.init n (fun widx ->
            {
              widx;
              pid = -1;
              fd = Unix.stdin (* replaced by spawn_slot *);
              inbuf = Buffer.create 4096;
              current = None;
              alive = false;
              jobs_done = 0;
            });
      attempts = Hashtbl.create 16;
      parked = Hashtbl.create 16;
      running = Hashtbl.create 16;
      max_restarts = 16 + (4 * n);
      restarts = 0;
      gave_up = false;
      shutting_down = false;
    }
  in
  for i = 0 to n - 1 do
    spawn_slot t i
  done;
  t

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)

let live t = Array.to_list (Array.of_seq (Seq.filter (fun w -> w.alive) (Array.to_seq t.slots)))
let fds t = List.map (fun w -> w.fd) (live t)
let active t = List.length (live t)

let in_flight t =
  Array.fold_left
    (fun acc w -> if w.alive && w.current <> None then acc + 1 else acc)
    0 t.slots

let restarts t = t.restarts
let pids t = List.map (fun w -> w.pid) (live t)

let has_idle t =
  t.gave_up
  || Array.exists (fun w -> w.alive && w.current = None) t.slots

let stats_json t =
  [
    ("workers_active", Json.int (active t));
    ("workers_in_flight", Json.int (in_flight t));
    ("worker_restarts", Json.int t.restarts);
    ( "workers",
      Json.Arr
        (List.map
           (fun w ->
             Json.Obj
               [
                 ("pid", Json.int w.pid);
                 ("in_flight", Json.int (if w.current = None then 0 else 1));
                 ("jobs_done", Json.int w.jobs_done);
               ])
           (live t)) );
  ]

(* ------------------------------------------------------------------ *)
(* Protocol plumbing                                                  *)

(* blocking write of the (small) request lines; EAGAIN waits for the
   socketpair buffer with a bounded select.  false = the worker is gone. *)
let send_all fd s =
  let len = String.length s in
  let off = ref 0 in
  let ok = ref true in
  while !ok && !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> (
      match Unix.select [] [ fd ] [] 5.0 with
      | [], [], [] -> ok := false (* stuck for 5 s: treat as dead *)
      | _ -> ()
      | exception Unix.Unix_error _ -> ok := false)
    | exception Unix.Unix_error _ -> ok := false
  done;
  !ok

let release_parked t sched digest =
  match Hashtbl.find_opt t.parked digest with
  | None -> ()
  | Some ids ->
    Hashtbl.remove t.parked digest;
    (* back through the queue: they resolve as cache hits if the twin
       succeeded, or dispatch for real if it failed *)
    List.iter (fun id -> Scheduler.requeue_dispatch sched id) (List.rev !ids)

let fail_job t sched ~route id =
  Hashtbl.remove t.attempts id;
  Option.iter route
    (Scheduler.complete_dispatch sched id
       (Error
          (Core.Diag.errorf ~stage "worker died %d times running this job"
             max_attempts)))

let worker_died t sched ~route w =
  if w.alive then begin
    w.alive <- false;
    (try Unix.close w.fd with Unix.Unix_error _ -> ());
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    Buffer.clear w.inbuf;
    Telemetry.counter_add "service.worker_deaths" 1;
    Telemetry.Events.emit "worker.exit"
      ~attrs:[ ("slot", Telemetry.Int w.widx); ("pid", Telemetry.Int w.pid) ];
    (match w.current with
    | None -> ()
    | Some { c_id; c_digest } ->
      w.current <- None;
      Hashtbl.remove t.running c_digest;
      release_parked t sched c_digest;
      let att = Option.value ~default:1 (Hashtbl.find_opt t.attempts c_id) in
      if att >= max_attempts then fail_job t sched ~route c_id
      else begin
        Telemetry.Events.emit "worker.requeue"
          ~attrs:[ ("id", Telemetry.Int c_id); ("slot", Telemetry.Int w.widx) ];
        Scheduler.requeue_dispatch sched c_id
      end);
    if not t.shutting_down then begin
      if t.restarts < t.max_restarts then begin
        t.restarts <- t.restarts + 1;
        Telemetry.counter_add "service.worker_restarts" 1;
        spawn_slot t w.widx
      end
      else t.gave_up <- true
    end
  end

(* The worker's own timing is not forwarded: the scheduler takes
   [wall_ms] from its clock mode, so a job reports the same figure on a
   worker as in-process. *)
let settle t sched ~route w result =
  match w.current with
  | None -> () (* stray reply (e.g. after a requeue); nothing to settle *)
  | Some { c_id; c_digest } ->
    w.current <- None;
    w.jobs_done <- w.jobs_done + 1;
    Hashtbl.remove t.running c_digest;
    Hashtbl.remove t.attempts c_id;
    Option.iter route (Scheduler.complete_dispatch sched c_id result);
    release_parked t sched c_digest

let on_reply t sched ~route w line =
  if String.trim line = "" then ()
  else
    match Json.of_string line with
    | Error _ -> ()
    | Ok j -> (
      match Option.bind (Json.member "event" j) Json.to_str with
      | Some "done" -> (
        match Option.bind (Json.member "state" j) Json.to_str with
        | Some "done" ->
          let result = Option.value ~default:Json.Null (Json.member "result" j) in
          settle t sched ~route w (Ok result)
        | Some "failed" ->
          let d =
            match Json.member "error" j with
            | Some e ->
              Core.Diag.of_json ~stage ~message:"worker job failed" e
            | None -> Core.Diag.error ~stage "worker reported failure"
          in
          settle t sched ~route w (Error d)
        | _ ->
          settle t sched ~route w
            (Error (Core.Diag.error ~stage "unexpected worker completion state")))
      | Some "rejected" | Some "error" ->
        let d =
          match Json.member "error" j with
          | Some e ->
            Core.Diag.of_json ~stage ~message:"worker job failed" e
          | None -> Core.Diag.error ~stage "worker rejected the job"
        in
        settle t sched ~route w (Error d)
      | _ -> () (* accepted, drained, ... *))

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)

let pick_idle t digest =
  let n = Array.length t.slots in
  let ok w = w.alive && w.current = None in
  let pref = t.slots.(Hashtbl.hash digest mod n) in
  if ok pref then Some pref
  else
    Array.fold_left (fun acc w -> if acc = None && ok w then Some w else acc)
      None t.slots

let start t sched ~route w ~id ~digest ~trace job =
  let lines =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.Str "submit");
           ("job", Job.to_json job);
           ("trace_id", Json.Str trace);
         ])
    ^ "\n" ^ {|{"op":"drain"}|} ^ "\n"
  in
  w.current <- Some { c_id = id; c_digest = digest };
  Hashtbl.replace t.running digest w.widx;
  Hashtbl.replace t.attempts id
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.attempts id));
  Telemetry.counter_add "service.worker_jobs" 1;
  Telemetry.Events.emit ~trace_id:trace "worker.dispatch"
    ~attrs:[ ("id", Telemetry.Int id); ("slot", Telemetry.Int w.widx) ];
  if not (send_all w.fd lines) then worker_died t sched ~route w

let rec dispatch t sched ~route =
  (* with no workers left and no respawn budget, the queue drains as
     failures rather than hanging the server *)
  let stranded = t.gave_up && active t = 0 in
  if
    (not t.shutting_down)
    && (stranded || Array.exists (fun w -> w.alive && w.current = None) t.slots)
  then
    match Scheduler.next_dispatch sched with
    | None -> ()
    | Some (Scheduler.Resolved c) ->
      route c;
      dispatch t sched ~route
    | Some (Scheduler.Run { disp_id; disp_job; disp_digest; disp_trace }) ->
      (if stranded then
         Option.iter route
           (Scheduler.complete_dispatch sched disp_id
              (Error
                 (Core.Diag.error ~stage
                    "no live workers (respawn budget exhausted)")))
       else if Hashtbl.mem t.running disp_digest then begin
         (* duplicate of an in-flight digest: park it; it requeues when
            the twin settles and resolves as a cache hit *)
         let ids =
           match Hashtbl.find_opt t.parked disp_digest with
           | Some ids -> ids
           | None ->
             let ids = ref [] in
             Hashtbl.replace t.parked disp_digest ids;
             ids
         in
         ids := disp_id :: !ids;
         Telemetry.counter_add "service.worker_parked" 1
       end
       else
         match pick_idle t disp_digest with
         | Some w ->
           start t sched ~route w ~id:disp_id ~digest:disp_digest
             ~trace:disp_trace disp_job
         | None ->
           (* raced out of idle slots (worker died under us): put it back *)
           Scheduler.requeue_dispatch sched disp_id);
      dispatch t sched ~route

(* ------------------------------------------------------------------ *)
(* Event-loop integration                                             *)

let read_chunk = 65536

let read_worker t sched ~route w =
  let buf = Bytes.create read_chunk in
  let continue = ref true in
  while !continue && w.alive do
    match Unix.read w.fd buf 0 read_chunk with
    | 0 ->
      continue := false;
      worker_died t sched ~route w
    | n ->
      Buffer.add_subbytes w.inbuf buf 0 n;
      let data = Buffer.contents w.inbuf in
      let len = String.length data in
      let rec lines start =
        if not w.alive then len
        else
          match String.index_from_opt data start '\n' with
          | None -> start
          | Some i ->
            on_reply t sched ~route w (String.sub data start (i - start));
            lines (i + 1)
      in
      let rest = lines 0 in
      if w.alive then begin
        Buffer.clear w.inbuf;
        if rest < len then Buffer.add_substring w.inbuf data rest (len - rest)
      end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      continue := false
    | exception Unix.Unix_error _ ->
      continue := false;
      worker_died t sched ~route w
  done

let reap t sched ~route =
  Array.iter
    (fun w ->
      if w.alive then
        match Unix.waitpid [ Unix.WNOHANG ] w.pid with
        | 0, _ -> ()
        | _ -> worker_died t sched ~route w
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          worker_died t sched ~route w
        | exception Unix.Unix_error _ -> ())
    t.slots

let service t sched ~route ~ready =
  Array.iter
    (fun w -> if w.alive && List.mem w.fd ready then read_worker t sched ~route w)
    t.slots;
  reap t sched ~route;
  dispatch t sched ~route

let drain t sched ~route =
  let pending () =
    (Scheduler.stats sched).Scheduler.queued > 0
    || Scheduler.dispatched_count sched > 0
  in
  dispatch t sched ~route;
  while pending () && not t.shutting_down do
    let fds = fds t in
    let r, _, _ =
      try Unix.select fds [] [] 0.25
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    service t sched ~route ~ready:r
  done

(* ------------------------------------------------------------------ *)
(* Shutdown                                                           *)

let shutdown t =
  if not t.shutting_down then begin
    t.shutting_down <- true;
    Array.iter
      (fun w ->
        if w.alive then begin
          (* EOF on stdin: the child's serve loop drains and exits *)
          (try Unix.close w.fd with Unix.Unix_error _ -> ());
          let reaped = ref false in
          let waited = ref 0. in
          while (not !reaped) && !waited < 5.0 do
            match Unix.waitpid [ Unix.WNOHANG ] w.pid with
            | 0, _ ->
              Unix.sleepf 0.02;
              waited := !waited +. 0.02
            | _ -> reaped := true
            | exception Unix.Unix_error _ -> reaped := true
          done;
          if not !reaped then begin
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ()
          end;
          w.alive <- false
        end)
      t.slots
  end
