(** The batched job scheduler: a bounded priority queue with FIFO
    fairness per class, explicit backpressure, per-job deadlines, and a
    digest-keyed result cache persisted under [_artifacts/].

    {2 Execution model}

    Jobs are {e batched}, not preemptive: {!drain} (or {!await}) pulls
    one job at a time off the queue — strict priority across classes
    ([High] before [Normal] before [Low]), FIFO within a class — and runs
    it to completion on the calling domain.  Every job takes one path
    from admission to settlement, whether it runs here or on a worker
    process: {!next_dispatch} dequeues it (settling expiries and cache
    hits on the spot), something runs it, and {!complete_dispatch}
    settles it; {!run_next} is that path with the job run in-process.
    Parallelism lives {e inside} jobs: campaigns and sweeps map-reduce
    on the scheduler's {!Parallel.Pool}, whose size is [config.domains].
    Because job results are domain-count-invariant (the PR-1 engine
    guarantee) and the dequeue policy never consults the pool, the
    completion order and every completion record are {b bit-identical at
    any [domains]} under the virtual clock.

    {2 Thread safety}

    Every entry point below ([submit], [cancel], [state], [stats],
    [run_next], [now_ms] — and [drain] / [await], which compose them) is
    serialised on an internal mutex, so multiple server connections or
    threads can drive one scheduler safely.  [run_next] holds the lock
    for the whole job it executes: execution stays batched and
    one-at-a-time (the replay-determinism model is unchanged), and
    concurrent callers simply queue behind it.

    {2 Backpressure}

    The queue holds at most [config.capacity] jobs across all classes.
    Overload is a structured {!Core.Diag.t} rejection at submission time
    — never a hang, never a silent drop; the diagnostic carries the
    capacity, current depth and the rejected job's class.

    {2 Deadlines}

    A job may carry a relative deadline.  Deadlines are checked when the
    job is {e dequeued}: a job whose queue wait already exceeds its
    deadline is not run — it completes as [Expired] and is reported like
    any other completion.  (Batched execution means a started job always
    finishes; admission control plus expiry bound how stale its start
    can be.)

    {2 Clocks and replay}

    [Wall] mode reads the real clock.  [Virtual] mode drives a
    deterministic clock instead: submissions and completions advance it
    by declared costs, so queue waits, expiries and completion records
    are exact integers of the replayed schedule — {!replay} seeds a
    submission order from {!Parallel.Split_rng} and returns records two
    runs can compare with [=].

    {2 Caching}

    Results are cached by {!Job.digest}, in memory and (when
    [cache_dir] is set) as one JSON document per digest on disk, written
    atomically.  A hit completes the job as [Done { cached = true }]
    without running it — across scheduler instances and process
    restarts.  It is the only cache across jobs: every pass of a flow
    job is a function of the job's digest, so a repeat is a hit here
    before the runner is called. *)

type priority = High | Normal | Low

val priority_of_string : string -> priority option

type clock_mode = Wall | Virtual

type config = {
  domains : int;  (** pool size for intra-job parallelism (>= 1) *)
  capacity : int;  (** max queued jobs across all classes (>= 1) *)
  cache_dir : string option;
      (** persisted result cache directory; created on demand *)
  clock : clock_mode;
  journal : string option;
      (** write-ahead journal path (see {!Journal}); every accepted
          submission and every settlement is fsync'd to it, and
          {!recover} replays it after a restart *)
}

val default_config : config
(** 1 domain, capacity 64, no persistence, wall clock, no journal. *)

type terminal =
  | Done of { cached : bool; wall_ms : float; result : Json.t }
      (** [wall_ms] is 0 for cache hits, the declared cost under the
          virtual clock, and the measured time from dispatch to
          settlement otherwise — the same rule in-process and on
          workers *)
  | Failed of Core.Diag.t
  | Cancelled
  | Expired of { late_ms : float }
      (** queue wait exceeded the deadline by [late_ms] at dequeue *)

type state = Queued | Running | Finished of terminal

type completion = {
  id : int;
  job : Job.t;
  priority : priority;
  outcome : terminal;
  queue_wait_ms : float;
  finished_at_ms : float;  (** clock reading when the job completed *)
  trace_id : string;
      (** the id supplied at submission, or the generated one — the same
          value flows through the job's spans, its event-log entries and
          its completion event on the wire *)
}

type stats = {
  queued : int;  (** currently waiting, all classes *)
  queued_high : int;  (** per-class depths; they sum to [queued] *)
  queued_normal : int;
  queued_low : int;
  executed : int;  (** jobs actually run (cache misses) *)
  cache_hits : int;
  done_ : int;  (** completed with a result, cached or not *)
  failed : int;
  cancelled : int;
  expired : int;
  rejected : int;  (** submissions refused by admission control *)
  capacity : int;
}

type t

val create : ?config:config -> unit -> t
(** Spawn the worker pool and (if configured) create the cache
    directory. *)

val shutdown : t -> unit
(** Join the pool.  Idempotent; further submissions are rejected. *)

val with_scheduler : ?config:config -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)

val submit :
  t -> ?priority:priority -> ?deadline_ms:float -> ?cost_ms:float ->
  ?trace_id:string -> Job.t -> (int, Core.Diag.t) result
(** Enqueue a job; returns its id.  Rejections ({!Job.validate} failures,
    non-positive deadline/cost, full queue, shut-down scheduler) are
    structured diagnostics and are counted in {!stats}.  [?cost_ms] is
    the virtual-clock advance of the job; without it, 1 ms.

    [?trace_id] names the submission in every observability surface — the
    job's spans, the structured event log, the completion record and the
    Chrome trace.  When omitted one is generated deterministically from
    the job id and the job digest ([t<id>-<digest prefix>]), so replayed
    schedules carry bit-identical trace ids. *)

val cancel : t -> int -> (unit, Core.Diag.t) result
(** Cancel a queued job (it is skipped at dequeue and produces no
    completion).  Running or finished jobs cannot be cancelled — batched
    execution has no preemption — and unknown ids are diagnostics. *)

val state : t -> int -> (state, Core.Diag.t) result

val run_next : t -> completion option
(** Dequeue and run (or expire) the single highest-priority job; [None]
    when the queue is empty.  It is {!next_dispatch}, then
    {!Runner.run} inside a [service.job] span, then
    {!complete_dispatch}.  The building block of {!drain} and
    {!await}. *)

val drain : ?on_completion:(completion -> unit) -> t -> completion list
(** Run until the queue is empty; completions in execution order.
    [on_completion] fires as each job finishes — the serving layer
    streams NDJSON events from it. *)

val await : t -> int -> (terminal, Core.Diag.t) result
(** Drive the scheduler until the given job reaches a terminal state
    (jobs ahead of it in policy order run first), then return it — for a
    job cancelled while queued that state is [Cancelled].  Unknown ids
    are diagnostics. *)

val stats : t -> stats

val trace_id : t -> int -> string option
(** The trace id of a known job (supplied or generated at submission);
    [None] for unknown ids. *)

val uptime_ms : t -> float
(** Wall-clock milliseconds since {!create} — always the real clock,
    even under the virtual clock mode (it feeds the [health] op, not the
    replay model). *)

val now_ms : t -> float
(** Current clock reading (virtual or wall), for tests and servers. *)

(** {1 Dispatch}

    The one execution path.  {!run_next} runs a dispatched job in
    process; the worker-sharding server ({!Workers}) instead ships it to
    a child process and settles it with {!complete_dispatch} — or
    returns it to the queue with {!requeue_dispatch} when the child dies
    mid-job.  Dequeue policy, deadline expiry, the digest cache, the
    journal and every telemetry event are therefore the same for both. *)

type dispatch =
  | Run of {
      disp_id : int;
      disp_job : Job.t;
      disp_digest : string;
      disp_trace : string;
    }  (** run this job elsewhere, then call {!complete_dispatch} *)
  | Resolved of completion
      (** settled at dequeue: a cache hit or a blown deadline *)

val next_dispatch : t -> dispatch option
(** Pop the next runnable job without executing it.  A cache hit or an
    expired deadline completes immediately ([Resolved]); otherwise the
    job is marked [Running], counted as in-dispatch, and returned as
    [Run].  [None] when the queue is empty. *)

val complete_dispatch :
  t -> int -> ?wall_ms:float -> (Json.t, Core.Diag.t) result ->
  completion option
(** Settle a dispatched job with the result its runner produced: [Ok]
    stores the result in the digest cache and completes the job as
    [Done { cached = false }]; [Error] completes it as [Failed].  [None]
    if the id is not currently dispatched (e.g. already requeued).
    Without [?wall_ms] the recorded time follows the clock mode (see
    {!terminal}); an explicit [wall_ms] is recorded as given. *)

val requeue_dispatch : t -> int -> unit
(** Return a dispatched job to the back of its priority FIFO (worker
    death).  The journal still holds its unsettled [Submit] record, so
    the job also survives a parent crash while requeued.  No-op for ids
    not currently dispatched. *)

val dispatched_count : t -> int
(** Jobs handed out by {!next_dispatch} and not yet settled or
    requeued. *)

(** {1 Crash recovery} *)

type recovery = {
  rec_settled : int;
      (** journaled submissions with a matching settle record,
          rehydrated into the ledger *)
  rec_requeued : int;
      (** submissions re-enqueued (unsettled, or settled-done whose
          result the cache no longer holds) *)
  rec_truncated : bool;  (** a torn trailing record was discarded *)
}

val recover : t -> (recovery, Core.Diag.t) result
(** Replay the configured journal against the persisted digest cache:
    settled submissions rehydrate the ledger counters (done/failed/
    cancelled/expired) as finished records under fresh ids; unsettled
    ones re-enqueue in original order with their original priority,
    trace id, deadline and cost.  Ends with a compaction — the journal
    is atomically rewritten to exactly the still-pending submissions.
    Call once, after {!create} and before submitting; without a
    configured journal it is a no-op returning zeros. *)

type journal_info = {
  ji_path : string;
  ji_healthy : bool;  (** false once an append failed and disabled it *)
  ji_appends : int;  (** records fsync'd since the journal was opened *)
  ji_settled : int;  (** from {!recover} *)
  ji_requeued : int;  (** from {!recover} *)
  ji_truncated : bool;  (** from {!recover} *)
  ji_compactions : int;
}

val journal_info : t -> journal_info option
(** Journal state for the stats/health surfaces; [None] when no journal
    is configured. *)

(** {1 Deterministic replay} *)

type request = {
  req_job : Job.t;
  req_priority : priority;
  req_deadline_ms : float option;
  req_cost_ms : float option;
  req_trace_id : string option;
}

val request :
  ?priority:priority -> ?deadline_ms:float -> ?cost_ms:float ->
  ?trace_id:string -> Job.t -> request

type replay_result = {
  completions : completion list;
  rejections : (int * Core.Diag.t) list;
      (** positions (in the {e submitted} order) refused admission *)
}

val replay : ?config:config -> seed:int -> request list -> replay_result
(** Deterministic scheduling harness: permute the requests with a
    Fisher–Yates shuffle driven by {!Parallel.Split_rng} [(seed, 0)],
    submit them against a fresh scheduler forced onto the virtual clock
    (1 ms between arrivals), drain, shut down.  Every field of the result
    — order, outcomes, queue waits, timestamps — depends only on [seed],
    the requests and [config.capacity]; in particular
    it is bit-for-bit identical at any [config.domains]. *)
