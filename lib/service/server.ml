let stage = "service.protocol"

let error_event ?(event = "error") d =
  Json.Obj
    [ ("ok", Json.Bool false); ("event", Json.Str event);
      ("error", Core.Diag.to_json d) ]

(* every successful reply opens with these two members *)
let ok_event event members =
  Json.Obj (("ok", Json.Bool true) :: ("event", Json.Str event) :: members)

let state_string = function
  | Scheduler.Queued -> "queued"
  | Scheduler.Running -> "running"
  | Scheduler.Finished (Scheduler.Done _) -> "done"
  | Scheduler.Finished (Scheduler.Failed _) -> "failed"
  | Scheduler.Finished Scheduler.Cancelled -> "cancelled"
  | Scheduler.Finished (Scheduler.Expired _) -> "expired"

let event_of_completion (c : Scheduler.completion) =
  let base =
    [
      ("id", Json.int c.Scheduler.id);
      ("trace_id", Json.Str c.Scheduler.trace_id);
      ("kind", Json.Str (Job.kind c.Scheduler.job));
      ("state", Json.Str (state_string (Scheduler.Finished c.Scheduler.outcome)));
      ("queue_wait_ms", Json.Num c.Scheduler.queue_wait_ms);
    ]
  in
  let tail =
    match c.Scheduler.outcome with
    | Scheduler.Done { cached; wall_ms; result } ->
      [
        ("cached", Json.Bool cached);
        ("wall_ms", Json.Num wall_ms);
        ("result", result);
      ]
    | Scheduler.Failed d -> [ ("error", Core.Diag.to_json d) ]
    | Scheduler.Cancelled -> []
    | Scheduler.Expired { late_ms } -> [ ("late_ms", Json.Num late_ms) ]
  in
  ok_event "done" (base @ tail)

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)

let protocol_error fmt = Core.Diag.errorf ~stage fmt

(* Optional request members must distinguish "absent" (fine, use the
   default) from "present with the wrong type" (a visible rejection
   naming the field) — [Option.bind … Json.to_float] used to collapse
   both to [None], silently ignoring e.g. a string ["deadline_ms"]. *)
let opt_member obj name conv ~expect =
  match Json.member name obj with
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (protocol_error "member %s must be %s" name expect))

(* One submission: [Ok (id, accepted-event)] or [Error rejected-event].
   The id is what routes the job's completion back to the connection
   that submitted it. *)
let submit_request sched obj =
  let reject d = Error (error_event ~event:"rejected" d) in
  match Json.member "job" obj with
  | None -> reject (protocol_error "missing member job")
  | Some job_json -> (
    match Job.of_json job_json with
    | Error d -> reject d
    | Ok job ->
      let ( let* ) r f = match r with Error d -> reject d | Ok x -> f x in
      let* priority_str =
        opt_member obj "priority" Json.to_str ~expect:"a string"
      in
      let* priority =
        match priority_str with
        | None -> Ok Scheduler.Normal
        | Some s -> (
          match Scheduler.priority_of_string s with
          | Some p -> Ok p
          | None -> Error (protocol_error "unknown priority %S" s))
      in
      let* deadline_ms =
        opt_member obj "deadline_ms" Json.to_float ~expect:"a number"
      in
      let* cost_ms =
        opt_member obj "cost_ms" Json.to_float ~expect:"a number"
      in
      let* trace_id =
        opt_member obj "trace_id" Json.to_str ~expect:"a string"
      in
      match
        Scheduler.submit sched ~priority ?deadline_ms ?cost_ms ?trace_id job
      with
      | Ok id ->
        let trace =
          match Scheduler.trace_id sched id with Some t -> t | None -> ""
        in
        Ok
          ( id,
            ok_event "accepted"
              [
                ("id", Json.int id);
                ("trace_id", Json.Str trace);
                ("kind", Json.Str (Job.kind job));
              ] )
      | Error d -> reject d)

(* journal members appear in stats/health only when a journal is
   configured, so journal-less servers keep their exact reply shape *)
let journal_extra sched =
  match Scheduler.journal_info sched with
  | None -> []
  | Some ji ->
    [
      ("journal_path", Json.Str ji.Scheduler.ji_path);
      ("journal_healthy", Json.Bool ji.Scheduler.ji_healthy);
      ("journal_appends", Json.int ji.Scheduler.ji_appends);
      ("journal_recovered_settled", Json.int ji.Scheduler.ji_settled);
      ("journal_recovered_requeued", Json.int ji.Scheduler.ji_requeued);
      ("journal_truncated", Json.Bool ji.Scheduler.ji_truncated);
      ("journal_compactions", Json.int ji.Scheduler.ji_compactions);
    ]

let stats_event sched ~extra =
  let s = Scheduler.stats sched in
  let extra = journal_extra sched @ extra in
  ok_event "stats"
    ([
       ("queued", Json.int s.Scheduler.queued);
       ("queued_high", Json.int s.Scheduler.queued_high);
       ("queued_normal", Json.int s.Scheduler.queued_normal);
       ("queued_low", Json.int s.Scheduler.queued_low);
       ("executed", Json.int s.Scheduler.executed);
       ("cache_hits", Json.int s.Scheduler.cache_hits);
       ("done", Json.int s.Scheduler.done_);
       ("failed", Json.int s.Scheduler.failed);
       ("cancelled", Json.int s.Scheduler.cancelled);
       ("expired", Json.int s.Scheduler.expired);
       ("rejected", Json.int s.Scheduler.rejected);
       ("capacity", Json.int s.Scheduler.capacity);
     ]
    @ extra)

let health_event sched ~in_flight ~extra =
  let s = Scheduler.stats sched in
  let extra = journal_extra sched @ extra in
  ok_event "health"
    ([
       ("status", Json.Str "ok");
       ("uptime_ms", Json.Num (Scheduler.uptime_ms sched));
       ("queued", Json.int s.Scheduler.queued);
       ("queued_high", Json.int s.Scheduler.queued_high);
       ("queued_normal", Json.int s.Scheduler.queued_normal);
       ("queued_low", Json.int s.Scheduler.queued_low);
       ("in_flight", Json.int in_flight);
       ("done", Json.int s.Scheduler.done_);
       ("failed", Json.int s.Scheduler.failed);
       ("cache_hits", Json.int s.Scheduler.cache_hits);
       ("capacity", Json.int s.Scheduler.capacity);
     ]
    @ extra)

let metrics_event () =
  ok_event "metrics"
    [
      ("content_type", Json.Str "text/plain; version=0.0.4");
      ("body", Json.Str (Telemetry.Prometheus.render (Telemetry.collect ())));
    ]

(* ------------------------------------------------------------------ *)
(* Connections and the request handler.  Both transports answer every
   request line through [handle_line] on a [conn]; they differ only in
   how a reply leaves ([reply] prints it on stdio and queues it on a
   socket) and in when jobs run.  Stdio runs them only at [drain] and end
   of input, which keeps [serve --replay] transcripts exact; the socket
   loop pumps one job per tick and routes each completion to the
   connection that submitted it. *)

type conn = {
  cid : int;
  reply : Json.t -> unit;
  mutable owned_jobs : int;  (* submitted here and not yet completed *)
  mutable delivered : int;  (* completions routed here, for [drain] *)
  mutable tokens : float;  (* rate-limit token bucket (submits) *)
  mutable refill_ms : float;  (* last bucket refill instant *)
}

(* A socket client: its [conn] plus the I/O state of the select loop. *)
type link = {
  conn : conn;
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* bytes of a not-yet-complete request line *)
  outq : string Queue.t;  (* response lines awaiting the socket *)
  mutable out_off : int;  (* bytes of the queue head already written *)
  mutable out_bytes : int;  (* total queued output, for backpressure *)
  mutable eof : bool;  (* peer half-closed; flush + finish its jobs *)
  mutable dead : bool;
  mutable last_in_ms : float;
  opened_ms : float;
}

(* What only the socket transport has: its clients, their counters and
   the admission limits. *)
type listener = {
  mutable links : link list;
  mutable accepted : int;
  mutable conn_errors : int;
  mutable idle_closed : int;
  mutable dropped : int;
  mutable rejected_rate : int;
  mutable rejected_queue : int;
  rate_limit : float option;
  queue_high_water : int option;
}

type server = {
  sched : Scheduler.t;
  workers : Workers.t option;
  owners : (int, conn) Hashtbl.t;  (* job id -> submitting connection *)
  orphans : conn option;
      (* receives completions nobody owns (jobs re-enqueued by journal
         recovery): stdio's one client; on a socket they are dropped *)
  socket : listener option;
}

let now_ms () = Unix.gettimeofday () *. 1000.

(* the connection that submitted job [id] lets go of it *)
let release srv id =
  let owner = Hashtbl.find_opt srv.owners id in
  Option.iter
    (fun c ->
      Hashtbl.remove srv.owners id;
      c.owned_jobs <- c.owned_jobs - 1)
    owner;
  owner

(* Completions go to the connection that submitted the job.  If it died
   meanwhile the event is dropped; the job still ran, so the cache and
   the stats stay warm for everyone else. *)
let route srv (comp : Scheduler.completion) =
  match (release srv comp.Scheduler.id, srv.orphans) with
  | Some c, _ | None, Some c ->
    c.delivered <- c.delivered + 1;
    c.reply (event_of_completion comp)
  | None, None -> ()

(* Run the whole queue, every client's jobs, on the worker pool or in
   process. *)
let run_queue srv =
  let route = route srv in
  match srv.workers with
  | Some w -> Workers.drain w srv.sched ~route
  | None -> ignore (Scheduler.drain srv.sched ~on_completion:route)

(* Admission control, checked before the job is even parsed: a rejected
   submission must cost the server nothing but the reply.  Queue depth
   guards the shared scheduler; the token bucket guards it per client,
   so one chatty connection cannot starve the rest.  Both surface as the
   same structured "rejected" event a full scheduler produces. *)
let admission srv c =
  match srv.socket with
  | None -> None
  | Some l ->
    let queue_full =
      match l.queue_high_water with
      | Some hw -> (Scheduler.stats srv.sched).Scheduler.queued >= hw
      | None -> false
    in
    let reason =
      if queue_full then Some "queue_high_water"
      else
        match l.rate_limit with
        | None -> None
        | Some rate ->
          (* a bucket holds at most one second's budget (but never less
             than one token), so a client that slept cannot burst *)
          let now = now_ms () in
          c.tokens <-
            Float.min (Float.max 1. rate)
              (c.tokens +. (rate *. (now -. c.refill_ms) /. 1000.));
          c.refill_ms <- now;
          if c.tokens >= 1. then begin
            c.tokens <- c.tokens -. 1.;
            None
          end
          else Some "rate_limited"
    in
    Option.map
      (fun reason ->
        let msg =
          if reason = "rate_limited" then begin
            l.rejected_rate <- l.rejected_rate + 1;
            Printf.sprintf "submit rate above %g/s for this connection"
              (Option.value l.rate_limit ~default:0.)
          end
          else begin
            l.rejected_queue <- l.rejected_queue + 1;
            Printf.sprintf "queue depth at high-water mark %d"
              (Option.value l.queue_high_water ~default:0)
          end
        in
        Telemetry.counter_add ("service.rejected_" ^ reason) 1;
        Telemetry.Events.emit "job.rejected"
          ~attrs:
            [ ("conn", Telemetry.Int c.cid); ("reason", Telemetry.String reason) ];
        error_event ~event:"rejected"
          (Core.Diag.error ~stage:"service.admission"
             ~context:[ ("reason", reason); ("conn", string_of_int c.cid) ]
             msg))
      reason

(* members appended to stats and health: the socket's connection
   counters, then the worker pool's *)
let transport_extra srv =
  (match srv.socket with
  | None -> []
  | Some l ->
    [
      ("conns_active", Json.int (List.length l.links));
      ("conns_accepted", Json.int l.accepted);
      ("conn_errors", Json.int l.conn_errors);
      ("conns_idle_closed", Json.int l.idle_closed);
      ("conns_dropped", Json.int l.dropped);
      ("rejected_rate_limited", Json.int l.rejected_rate);
      ("rejected_high_water", Json.int l.rejected_queue);
    ])
  @ match srv.workers with Some w -> Workers.stats_json w | None -> []

(* stdio has no connection table: it reports no in-flight jobs *)
let health_reply srv =
  let in_flight, connections =
    match srv.socket with
    | None -> (0, [])
    | Some l ->
      let now = now_ms () in
      let link_json k =
        Json.Obj
          [
            ("cid", Json.int k.conn.cid);
            ("owned_jobs", Json.int k.conn.owned_jobs);
            ("out_bytes", Json.int k.out_bytes);
            ("age_ms", Json.Num (now -. k.opened_ms));
            ("idle_ms", Json.Num (now -. k.last_in_ms));
          ]
      in
      ( List.fold_left (fun n k -> n + k.conn.owned_jobs) 0 l.links,
        [ ("connections", Json.Arr (List.map link_json l.links)) ] )
  in
  health_event srv.sched ~in_flight ~extra:(transport_extra srv @ connections)

let handle_line srv c line =
  if String.trim line <> "" then
    match Json.of_string line with
    | Error msg -> c.reply (error_event (protocol_error "invalid JSON: %s" msg))
    | Ok req -> (
      let with_id f =
        match Option.bind (Json.member "id" req) Json.to_int with
        | None ->
          c.reply
            (error_event (protocol_error "missing or non-integer member id"))
        | Some id -> f id
      in
      match Option.bind (Json.member "op" req) Json.to_str with
      | None -> c.reply (error_event (protocol_error "missing member op"))
      | Some "submit" -> (
        match admission srv c with
        | Some rejected -> c.reply rejected
        | None -> (
          match submit_request srv.sched req with
          | Ok (id, accepted) ->
            Hashtbl.replace srv.owners id c;
            c.owned_jobs <- c.owned_jobs + 1;
            c.reply accepted
          | Error rejected -> c.reply rejected))
      | Some "status" ->
        with_id (fun id ->
            c.reply
              (match Scheduler.state srv.sched id with
              | Error d -> error_event d
              | Ok st ->
                ok_event "status"
                  [ ("id", Json.int id); ("state", Json.Str (state_string st)) ]))
      | Some "cancel" ->
        with_id (fun id ->
            match Scheduler.cancel srv.sched id with
            | Error d -> c.reply (error_event d)
            | Ok () ->
              (* a cancelled job never completes: released here *)
              ignore (release srv id);
              c.reply (ok_event "cancelled" [ ("id", Json.int id) ]))
      | Some "stats" ->
        c.reply (stats_event srv.sched ~extra:(transport_extra srv))
      | Some "health" -> c.reply (health_reply srv)
      | Some "metrics" -> c.reply (metrics_event ())
      | Some "drain" ->
        (* every client's jobs run; the requester is told how many of
           its own completed in this drain *)
        let before = c.delivered in
        run_queue srv;
        c.reply (ok_event "drained" [ ("jobs", Json.int (c.delivered - before)) ])
      | Some op -> c.reply (error_event (protocol_error "unknown op %S" op)))

(* ------------------------------------------------------------------ *)
(* Stdio: one client, a sequential read-answer loop                    *)

let stdio ?workers sched reply =
  let c =
    { cid = 0; reply; owned_jobs = 0; delivered = 0; tokens = 0.; refill_ms = 0. }
  in
  (c, { sched; workers; owners = Hashtbl.create 16; orphans = Some c; socket = None })

let handle sched line =
  let out = ref [] in
  let c, srv = stdio sched (fun e -> out := e :: !out) in
  handle_line srv c line;
  List.rev !out

let serve ?on_tick ?workers sched ic oc =
  let tick () = Option.iter (fun f -> f ()) on_tick in
  let c, srv =
    stdio ?workers sched (fun e ->
        output_string oc (Json.to_string e);
        output_char oc '\n';
        flush oc)
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file ->
      (* implicit drain: run what's queued, stream the done events, stop
         (no trailing "drained" marker — the stream just ends cleanly) *)
      (try run_queue srv with Sys_error _ -> ());
      tick ()
    | exception Sys_error _ ->
      (* the peer reset the connection — e.g. a worker-pool parent
         closing the socketpair with our final [drained] reply still
         unread turns the close into a RST.  The peer is gone, so there
         is nobody to drain for and writes would fail too: stop quietly
         instead of dying on an "uncaught exception". *)
      tick ()
    | line ->
      handle_line srv c line;
      tick ();
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Concurrent socket server: a select-based event loop over the
   listening socket and every live connection.  Connections are strictly
   isolated — an I/O error (EPIPE from a client that vanished mid-write,
   a reset, an oversized request line) closes only that connection and
   bumps [conn_errors]; the loop, the other clients and the scheduler
   keep going.  Jobs are pumped one per tick between I/O rounds. *)

type serve_stats = {
  accepted : int;
  conn_errors : int;
  idle_closed : int;
  dropped : int;
}

let read_chunk_bytes = 4096
let max_line_bytes = 1 lsl 20 (* a request line beyond 1 MiB is an error *)
let out_pause_bytes = 1 lsl 20 (* backpressure: stop reading above this *)
let out_drop_bytes = 8 * (1 lsl 20) (* slow consumer: drop the connection *)

(* Bind [path], replacing a stale socket left by an earlier server but
   never anything else that lives there. *)
let bind_socket path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Sys.remove path
  | _ ->
    raise
      (Core.Diag.Failure
         (Core.Diag.errorf ~stage ~context:[ ("path", path) ]
            "%s exists and is not a socket; refusing to replace it" path))
  | exception Unix.Unix_error _ -> () (* absent; bind reports the rest *));
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind sock (Unix.ADDR_UNIX path)
   with e ->
     Unix.close sock;
     raise e);
  sock

let serve_socket ?(max_conns = 8) ?idle_timeout_ms ?(connections = 1)
    ?rate_limit ?queue_high_water ?on_tick ?workers sched ~path =
  if max_conns < 1 then
    invalid_arg "Server.serve_socket: max_conns must be >= 1";
  if connections < 1 then
    invalid_arg "Server.serve_socket: connections must be >= 1";
  (match idle_timeout_ms with
  | Some t when not (t > 0. && Float.is_finite t) ->
    invalid_arg "Server.serve_socket: idle_timeout_ms must be positive"
  | _ -> ());
  (match rate_limit with
  | Some r when not (r > 0. && Float.is_finite r) ->
    invalid_arg "Server.serve_socket: rate_limit must be positive"
  | _ -> ());
  (match queue_high_water with
  | Some h when h < 1 ->
    invalid_arg "Server.serve_socket: queue_high_water must be >= 1"
  | _ -> ());
  (* a client gone mid-write must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let sock = bind_socket path in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.listen sock max_conns;
      Unix.set_nonblock sock;
      let l =
        {
          links = [];
          accepted = 0;
          conn_errors = 0;
          idle_closed = 0;
          dropped = 0;
          rejected_rate = 0;
          rejected_queue = 0;
          rate_limit;
          queue_high_water;
        }
      in
      let srv =
        { sched; workers; owners = Hashtbl.create 32; orphans = None; socket = Some l }
      in
      let gauge_active () =
        Telemetry.gauge_set "service.conns_active"
          (float_of_int (List.length l.links))
      in
      let enqueue k e =
        if not k.dead then begin
          let line = Json.to_string e ^ "\n" in
          Queue.push line k.outq;
          k.out_bytes <- k.out_bytes + String.length line;
          Telemetry.counter_add "service.events_out" 1
        end
      in
      let close_conn ?(error = false) ?(idle = false) ?(drop = false) k =
        if not k.dead then begin
          k.dead <- true;
          (try Unix.close k.fd with Unix.Unix_error _ -> ());
          if error then begin
            l.conn_errors <- l.conn_errors + 1;
            Telemetry.counter_add "service.conn_errors" 1
          end;
          if idle then begin
            l.idle_closed <- l.idle_closed + 1;
            Telemetry.counter_add "service.conn_idle_closed" 1
          end;
          if drop then begin
            l.dropped <- l.dropped + 1;
            Telemetry.counter_add "service.conns_dropped" 1
          end;
          let dur_ms = now_ms () -. k.opened_ms in
          Telemetry.instant "service.conn.close"
            ~attrs:
              [
                ("conn", Telemetry.Int k.conn.cid);
                ("error", Telemetry.Bool error);
                ("dur_ms", Telemetry.Float dur_ms);
              ];
          let kind =
            if drop then "conn.dropped"
            else if error then "conn.error"
            else if idle then "conn.idle_closed"
            else "conn.close"
          in
          Telemetry.Events.emit kind
            ~attrs:
              [
                ("conn", Telemetry.Int k.conn.cid);
                ("dur_ms", Telemetry.Float dur_ms);
                ("out_bytes", Telemetry.Int k.out_bytes);
              ]
        end
      in
      let readbuf = Bytes.create read_chunk_bytes in
      let read_conn k =
        match Unix.read k.fd readbuf 0 read_chunk_bytes with
        | 0 -> k.eof <- true
        | nread ->
          k.last_in_ms <- now_ms ();
          Buffer.add_subbytes k.inbuf readbuf 0 nread;
          let data = Buffer.contents k.inbuf in
          let len = String.length data in
          let rec lines start =
            if k.dead then start
            else
              match String.index_from_opt data start '\n' with
              | None -> start
              | Some i ->
                Telemetry.counter_add "service.lines_in" 1;
                handle_line srv k.conn (String.sub data start (i - start));
                lines (i + 1)
          in
          let rest = lines 0 in
          Buffer.clear k.inbuf;
          if not k.dead && rest < len then begin
            Buffer.add_substring k.inbuf data rest (len - rest);
            if Buffer.length k.inbuf > max_line_bytes then begin
              (* unframeable garbage; protocol error, drop the client *)
              enqueue k
                (error_event
                   (protocol_error "request line exceeds %d bytes"
                      max_line_bytes));
              close_conn ~error:true k
            end
          end
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          ()
        | exception Unix.Unix_error (_, _, _) -> close_conn ~error:true k
        | exception Sys_error _ -> close_conn ~error:true k
      in
      let write_conn k =
        let progress = ref true in
        while (not k.dead) && !progress && not (Queue.is_empty k.outq) do
          let head = Queue.peek k.outq in
          let remaining = String.length head - k.out_off in
          match Unix.single_write_substring k.fd head k.out_off remaining with
          | nwritten ->
            k.out_bytes <- k.out_bytes - nwritten;
            if nwritten = remaining then begin
              ignore (Queue.pop k.outq);
              k.out_off <- 0
            end
            else begin
              k.out_off <- k.out_off + nwritten;
              progress := false
            end
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
            progress := false
          | exception Unix.Unix_error (_, _, _) -> close_conn ~error:true k
          | exception Sys_error _ -> close_conn ~error:true k
        done
      in
      let accept_ready () =
        let continue = ref true in
        while
          !continue && l.accepted < connections
          && List.length l.links < max_conns
        do
          match Unix.accept sock with
          | fd, _addr ->
            Unix.set_nonblock fd;
            l.accepted <- l.accepted + 1;
            let now = now_ms () in
            let rec k =
              {
                conn =
                  {
                    cid = l.accepted;
                    reply = (fun e -> enqueue k e);
                    owned_jobs = 0;
                    delivered = 0;
                    tokens = (match rate_limit with Some r -> Float.max 1. r | None -> 0.);
                    refill_ms = now;
                  };
                fd;
                inbuf = Buffer.create 256;
                outq = Queue.create ();
                out_off = 0;
                out_bytes = 0;
                eof = false;
                dead = false;
                last_in_ms = now;
                opened_ms = now;
              }
            in
            l.links <- l.links @ [ k ];
            Telemetry.counter_add "service.conns_accepted" 1;
            Telemetry.instant "service.conn.open"
              ~attrs:[ ("conn", Telemetry.Int k.conn.cid) ];
            Telemetry.Events.emit "conn.open"
              ~attrs:[ ("conn", Telemetry.Int k.conn.cid) ];
            gauge_active ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> () (* retry *)
          | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
            continue := false
          | exception Unix.Unix_error (_, _, _) -> continue := false
        done
      in
      let rec loop () =
        (* reap: slow consumers, served-out peers, idle connections *)
        let now = now_ms () in
        List.iter
          (fun k ->
            if not k.dead then
              if k.out_bytes > out_drop_bytes then
                close_conn ~error:true ~drop:true k
              else if k.eof && k.conn.owned_jobs = 0 && Queue.is_empty k.outq
              then close_conn k
              else
                match idle_timeout_ms with
                | Some limit
                  when now -. k.last_in_ms > limit
                       && k.conn.owned_jobs = 0
                       && Queue.is_empty k.outq ->
                  close_conn ~idle:true k
                | _ -> ())
          l.links;
        l.links <- List.filter (fun k -> not k.dead) l.links;
        gauge_active ();
        if l.accepted >= connections && l.links = [] then
          (* graceful shutdown: finish whatever is still queued so the
             cache and the stats stay coherent; the owners are gone, so
             the events have nowhere to go *)
          run_queue srv
        else begin
          let queued = (Scheduler.stats sched).Scheduler.queued > 0 in
          let want_accept =
            l.accepted < connections && List.length l.links < max_conns
          in
          let rfds =
            (if want_accept then [ sock ] else [])
            @ List.filter_map
                (fun k ->
                  if k.eof || k.out_bytes > out_pause_bytes then None
                  else Some k.fd)
                l.links
            @ (match workers with Some w -> Workers.fds w | None -> [])
          in
          let wfds =
            List.filter_map
              (fun k -> if Queue.is_empty k.outq then None else Some k.fd)
              l.links
          in
          (* runnable work pending: poll; otherwise block — a worker's
             reply fd waking the select is what resumes dispatch *)
          let runnable =
            queued
            && (match workers with Some w -> Workers.has_idle w | None -> true)
          in
          let timeout = if runnable then 0. else 0.25 in
          let r, w, _ =
            try Unix.select rfds wfds [] timeout
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          if List.mem sock r then accept_ready ();
          List.iter (fun k -> if (not k.dead) && List.mem k.fd r then read_conn k) l.links;
          List.iter (fun k -> if (not k.dead) && List.mem k.fd w then write_conn k) l.links;
          (match workers with
          | Some wk ->
            (* replies, deaths, respawns, then refill the idle workers *)
            Workers.service wk sched ~route:(route srv) ~ready:r
          | None ->
            (* one job per tick keeps the loop responsive under load *)
            if queued then Option.iter (route srv) (Scheduler.run_next sched));
          (match on_tick with Some f -> f () | None -> ());
          loop ()
        end
      in
      loop ();
      (match on_tick with Some f -> f () | None -> ());
      {
        accepted = l.accepted;
        conn_errors = l.conn_errors;
        idle_closed = l.idle_closed;
        dropped = l.dropped;
      })
