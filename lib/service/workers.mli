(** Multi-process execution: shard jobs across N [cnfet_dk worker]
    children, each exec'd with a socketpair as its stdio and speaking
    the existing NDJSON protocol (one [submit] + [drain] per dispatched
    job, one [done] event back).

    The parent stays the single scheduler: it pops jobs with
    {!Scheduler.next_dispatch}, routes them to an idle child, and
    settles them with {!Scheduler.complete_dispatch} when the child's
    [done] event arrives.  Scale past one GC without giving up the
    single-writer cache, ledger and journal.

    {2 Digest affinity and dedup}

    A dispatch whose digest is already running on some worker is {e
    parked}, not double-executed: when the in-flight twin settles, the
    parked job is requeued and resolves as a digest-cache hit
    ([cached:true]) — exactly the dedup the in-process server performs.
    Distinct digests prefer the worker [hash(digest) mod n] when it is
    idle (cache locality inside the child), falling back to any idle
    worker.

    {2 Worker death}

    A child that dies (EOF on its socketpair, or reaped by [waitpid])
    gets its in-flight job {e requeued} — the journal still holds the
    unsettled submission, so the job also survives a parent crash — and
    the slot is respawned, counted in [restarts].  A job whose worker
    dies three times is completed as [Failed] instead of
    requeued (poison-job guard), and a pool whose respawns keep dying
    stops respawning after a global budget and fails what remains —
    never a hang.

    All functions are driven from the server's single event-loop thread;
    the type is not thread-safe. *)

type t

val create : argv:string array -> n:int -> t
(** Spawn [n] children running [argv] (typically
    [[| Sys.executable_name; "worker"; ... |]]), each with a fresh
    socketpair as stdin/stdout.  [n >= 1]. *)

val fds : t -> Unix.file_descr list
(** Parent-side socketpair fds of live workers — add these to the
    server's [select] read set; a readable fd means a reply line or an
    EOF (death) to {!service}. *)

val has_idle : t -> bool
(** A live worker with no job in flight exists (or the pool has given up
    respawning — then dispatch drains the queue as failures). *)

val active : t -> int
(** Live workers. *)

val in_flight : t -> int
(** Jobs currently running on workers (parked duplicates excluded). *)

val restarts : t -> int
val pids : t -> int list

val dispatch :
  t -> Scheduler.t -> route:(Scheduler.completion -> unit) -> unit
(** Pop and place jobs while an idle worker (and a runnable job) exists.
    Cache hits and expiries resolve inline through [route]; duplicates
    of in-flight digests are parked. *)

val service :
  t -> Scheduler.t -> route:(Scheduler.completion -> unit) ->
  ready:Unix.file_descr list -> unit
(** Handle one event-loop round: read replies / detect EOF on the ready
    fds, reap exited children, requeue-and-respawn, then {!dispatch}. *)

val drain :
  t -> Scheduler.t -> route:(Scheduler.completion -> unit) -> unit
(** Run until the scheduler queue is empty and nothing is in flight or
    parked — the worker-pool analogue of {!Scheduler.drain}, with its
    own [select] loop over the worker fds. *)

val stats_json : t -> (string * Json.t) list
(** [workers_active], [worker_restarts], [workers_in_flight] and a
    per-worker [workers] array ([pid], [in_flight], [jobs_done]) — the
    members the socket server appends to stats/health replies. *)

val shutdown : t -> unit
(** Close every worker's socketpair (the child sees EOF, drains and
    exits) and reap them, escalating to SIGKILL after a short grace
    period.  Idempotent. *)
