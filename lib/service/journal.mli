(** Write-ahead journal for the scheduler: an append-only NDJSON log of
    submissions and settlements under [_artifacts/], durable enough to
    rebuild the queue and the ledger after a crash.

    {2 Record framing}

    Each record is one line:

    {v <len> <crc32> <payload>\n v}

    where [payload] is a single JSON document of exactly [len] bytes and
    [crc32] is its CRC-32 (IEEE) in lowercase hex.  The frame makes a
    torn tail {e detectable}: a crash mid-append leaves a final line
    whose length or checksum does not match (or no newline at all), and
    {!load} truncates it instead of failing — every fully-appended
    record before it is preserved.  {!append} writes the frame with a
    single [write] and fsyncs before returning, so a record that was
    acknowledged (a submission accepted, a completion reported) is on
    disk.

    {2 Entries}

    [Submit] carries everything needed to re-create the submission:
    the full job document ({!Job.to_json}), its digest, the trace id,
    priority, deadline and cost.  [Settle] marks the job's terminal
    state by id and digest.  A journal where every [Submit] has a
    matching [Settle] is fully settled; {!Scheduler.recover} re-enqueues
    the unmatched remainder in original order and then compacts the log
    (see {!rewrite}).

    Append errors (disk full, permission lost mid-run) never raise: the
    journal disables itself, bumps [service.journal_errors] and emits a
    [journal.error] event — serving degrades to ephemeral rather than
    crashing. *)

type entry =
  | Submit of {
      sid : int;  (** scheduler job id at the time of submission *)
      sjob : Job.t;
      sdigest : string;
      strace : string;
      spriority : string;  (** ["high" | "normal" | "low"] *)
      sdeadline_ms : float option;
      scost_ms : float option;
    }
  | Settle of {
      tid : int;  (** the [Submit] id this settles *)
      tdigest : string;
      toutcome : string;  (** ["done" | "failed" | "cancelled" | "expired"] *)
    }

type loaded = {
  entries : entry list;  (** every intact record, in append order *)
  truncated : bool;  (** a torn or corrupt tail was discarded *)
}

val load : string -> (loaded, Core.Diag.t) result
(** Parse a journal file.  A missing file is an empty journal, not an
    error.  Parsing stops at the first frame that fails its length or
    CRC check — everything before it is returned and [truncated] is
    set. *)

type t
(** An open journal, positioned for appends. *)

val open_append : string -> (t, Core.Diag.t) result
(** Open (creating the file and its parent directories as needed) for
    appending.  Existing content is kept — call {!load} first and
    {!rewrite} to compact. *)

val append : t -> entry -> unit
(** Frame, write and fsync one record.  Never raises; see the module
    header for the failure mode. *)

val appends : t -> int
(** Records appended through this handle (successful fsyncs). *)

val healthy : t -> bool
(** [false] once an append has failed and the journal disabled itself. *)

val path : t -> string

val close : t -> unit
(** Close the fd.  No truncation, no compaction — the on-disk state is
    exactly the appended records, which is what crash recovery expects. *)

val rewrite : string -> entry list -> (unit, Core.Diag.t) result
(** Atomically replace the journal at the given path with exactly these
    entries (tmp file + fsync + rename): the compaction primitive.  Any
    open handle on the old file keeps appending to the {e replaced}
    inode, so close handles before rewriting and reopen after. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; the scheduler's result
    cache directory is made the same way. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of a string — exposed for tests. *)
