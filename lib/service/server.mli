(** NDJSON serving layer: one JSON document per line in, one per line
    out, over stdio or a Unix-domain socket.

    {2 Protocol}

    Requests are objects discriminated on ["op"]:

    {v
    {"op":"submit","job":{"kind":"fault","cell":"NAND2"},"priority":"high"}
    {"op":"status","id":3}
    {"op":"cancel","id":3}
    {"op":"stats"}
    {"op":"health"}
    {"op":"metrics"}
    {"op":"drain"}
    v}

    [submit] optionally carries ["priority"] (["high"|"normal"|"low"]),
    ["deadline_ms"], ["cost_ms"] and ["trace_id"] (any string naming the
    submission in every observability surface — spans, event log,
    completion events, Chrome trace; one is generated when absent); the
    ["job"] member uses the {!Job.of_json} schema.  Every response
    carries ["ok"] (bool) and ["event"]:

    - [submit] answers
      [{"ok":true,"event":"accepted","id":N,"trace_id":"..."}] or
      [{"ok":false,"event":"rejected","error":{...}}] — backpressure is a
      visible rejection, never a stalled connection;
    - [status] answers [{"ok":true,"event":"status","id":N,"state":...}];
    - [stats] answers [{"ok":true,"event":"stats",...counters...}]
      including per-priority queue depths ([queued_high] / [queued_normal]
      / [queued_low]) and [cache_hits]; the socket server appends its
      connection counters ([conns_active], [conns_accepted],
      [conn_errors], [conns_idle_closed], [conns_dropped],
      [rejected_rate_limited], [rejected_high_water]); with a journal
      configured the reply also carries [journal_path], [journal_healthy],
      [journal_appends], [journal_recovered_settled],
      [journal_recovered_requeued], [journal_truncated] and
      [journal_compactions], and with a worker pool it carries
      [workers_active], [worker_restarts], [workers_in_flight] and a
      per-worker [workers] array;
    - [health] answers [{"ok":true,"event":"health","status":"ok",
      "uptime_ms":x,"queued":N,...,"in_flight":N,...}] — the liveness
      probe; the socket server appends its connection counters and a
      [connections] array ([cid], [owned_jobs], [out_bytes], [age_ms],
      [idle_ms] per live client);
    - [metrics] answers [{"ok":true,"event":"metrics","content_type":
      "text/plain; version=0.0.4","body":"..."}] where [body] is the
      {!Telemetry.Prometheus.render} exposition of the merged registry —
      one JSON line an operator (or the [top] monitor) unwraps into a
      scrape;
    - [drain] (and end-of-input) runs all queued jobs, streaming one
      [{"ok":true,"event":"done","id":N,"trace_id":"...",
      "state":"done|failed|expired","cached":b,"wall_ms":x,
      "queue_wait_ms":x,"result":{...}}] line per completion, then (for
      the explicit op) [{"ok":true,"event":"drained","jobs":N}];
    - unparseable or unknown requests answer
      [{"ok":false,"event":"error","error":{...}}] and the connection
      stays up.

    Errors embed {!Core.Diag.t} as
    [{"stage","severity","message","context":{...}}].  Blank lines are
    ignored.

    {2 Transports}

    One request handler answers every op for both transports; a
    transport only decides how a reply leaves and when jobs run.

    Over stdio ({!serve}) the server is sequential: jobs run only at
    ["drain"] and at end of input, so a [--replay] transcript is an exact
    function of the request stream.  Its one client receives every
    completion, including jobs re-enqueued by journal recovery.

    Over a socket ({!serve_socket}) the server is {e concurrent}: many
    clients share one scheduler, jobs are pumped one per I/O round, and
    each ["done"] event streams to the connection that submitted the job
    as soon as it completes — possibly before any ["drain"].  The order
    therefore depends on arrival timing, not only on the requests.
    ["drain"] reports how many of {e the requester's} jobs finished in
    it.  Submissions carry no connection identity on the wire, so ids
    are global and ["status"]/["stats"] see the shared scheduler.

    With a worker pool ({!Workers}) jobs run in child processes on either
    transport, and completions arrive in the order the children finish. *)

val handle : Scheduler.t -> string -> Json.t list
(** Answer one request line as a stdio client would see it, returning
    the response documents (several for [drain]).  Exposed for tests;
    {!serve} runs the same handler in a read-print loop. *)

val serve :
  ?on_tick:(unit -> unit) -> ?workers:Workers.t ->
  Scheduler.t -> in_channel -> out_channel -> unit
(** Serve NDJSON until end-of-input, then drain the queue (streaming the
    final ["done"] events) and return.  Each response line is flushed as
    it is produced, so a ["drain"] streams its ["done"] events.
    [on_tick] fires after each handled request line and once after the
    final drain — the CLI hangs its periodic metrics dump on it.  With
    [workers], queued jobs execute on the pool instead of in-process; the
    caller owns the pool's lifecycle ({!Workers.shutdown} after this
    returns). *)

type serve_stats = {
  accepted : int;  (** connections accepted over the server's lifetime *)
  conn_errors : int;
      (** connections dropped on an I/O or protocol error (EPIPE mid
          response, reset, oversized request line, slow consumer) *)
  idle_closed : int;  (** connections closed by the idle timeout *)
  dropped : int;
      (** slow consumers dropped over the output hard cap (also counted
          in [conn_errors]) *)
}

val serve_socket :
  ?max_conns:int ->
  ?idle_timeout_ms:float ->
  ?connections:int ->
  ?rate_limit:float ->
  ?queue_high_water:int ->
  ?on_tick:(unit -> unit) ->
  ?workers:Workers.t ->
  Scheduler.t ->
  path:string ->
  serve_stats
(** Bind a Unix-domain socket at [path] and serve up to [connections]
    (default 1) clients {e concurrently} — at most [max_conns] (default
    8) simultaneously — on a [select]-based event loop, then drain the
    scheduler, close and unlink.  The scheduler — and its result cache — is shared by every
    connection (its entry points are mutex-guarded, see
    {!Scheduler}).  A stale socket at [path] is replaced; anything else
    there is left untouched and the call raises [Core.Diag.Failure].

    Guarantees:

    - {b incremental framing}: requests may arrive in arbitrary
      fragments; a line over 1 MiB is a protocol error on that
      connection only;
    - {b backpressure}: responses queue per connection (bounded); a
      connection over the high-water mark stops being read until it
      drains, and one exceeding the hard cap is dropped as a slow
      consumer;
    - {b isolation}: an I/O error — a client closing its socket
      mid-response, EPIPE, a reset — or a protocol error closes {e only}
      that connection, bumps [conn_errors] (and the
      [service.conn_errors] telemetry counter), and the loop keeps
      serving everyone else ([SIGPIPE] is ignored for the process);
    - {b routing}: each completion streams to the connection that
      submitted the job; end-of-input from a client lets its outstanding
      jobs finish, streams their events, then closes it (the implicit
      drain of {!serve}, per connection);
    - {b idle timeout}: with [idle_timeout_ms], a connection with no
      input, no queued output and no job in flight for that long is
      closed (counted in [idle_closed], not an error);
    - {b admission control}: with [rate_limit], each connection gets a
      token bucket of [rate_limit] submits/second (burst capacity
      [max 1. rate_limit]); with [queue_high_water], submits are refused
      while the shared scheduler queue is at or above that depth.  Either
      way the client gets the same structured
      [{"ok":false,"event":"rejected","error":{...}}] line a full
      scheduler produces, with the error context naming the reason
      ([rate_limited] or [queue_high_water]); the connection stays up,
      and the per-reason totals appear in [stats]/[health] replies as
      [rejected_rate_limited] / [rejected_high_water] (plus
      [service.rejected_*] telemetry counters and a [job.rejected]
      event-log entry per refusal);
    - {b graceful shutdown}: once [connections] clients have been served
      and disconnected, any still-queued jobs run to completion (cache
      and stats stay coherent) before the socket is unlinked;
    - {b sharding}: with [workers], jobs run on the child-process pool —
      the worker fds join the [select] set, replies settle jobs between
      I/O rounds, and completions still route to the submitting
      connection.  The caller owns the pool ({!Workers.shutdown} after
      this returns). *)
