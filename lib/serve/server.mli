(** The analysis daemon: [dbre serve].

    A {!t} listens on a Unix-domain socket, speaks the {!Protocol}
    wire format, and multiplexes submitted {!Dbre.Job_spec.t} jobs
    onto [max_jobs] runner threads. Each job runs under its own
    supervision token ({!Dbre.Job_spec.supervisor}), so [cancel] trips
    exactly one job's budget; actual parallelism inside a job comes
    from its engine's {!Relational.Domain_pool}, which serializes
    whole batches across concurrently running jobs.

    {b Artifacts.} A finished job's artifacts are exactly
    {!Dbre.Report.artifacts} of the {!Dbre.Job.run} result — the same
    function the one-shot CLI renders from — so serve-mode output is
    byte-identical to a local run of the same spec by construction.

    {b Mutation and refresh.} A settled job's loaded database is
    retained in memory: [mutate] appends/deletes rows in a named
    relation (logged in each table's mutation log), and [refresh]
    re-verifies the job against the mutated extension — one
    coordinated delta pass over the memoized column stores
    ({!Dbre.Refresh.database}), checkpoint invalidation, then the
    verification stages re-run, synchronously in the requesting
    connection's handler. The refreshed artifacts are byte-identical
    to resubmitting the job over the mutated data; [status] reports
    the delta-cache statistics behind them. Jobs adopted from a
    previous process hold no database and reject both requests.

    {b Crash recovery.} With a [state_dir], every job's spec and
    status are persisted (atomic rename), the job runs with a
    per-job checkpoint directory inside the state dir, and a finished
    job's artifacts are written there too. A daemon restarted over the
    same [state_dir] re-adopts settled jobs (status and artifacts
    queryable) and re-enqueues jobs that were queued or running when
    the previous daemon died; re-run stages restore from their
    checkpoints ({!Dbre.Pipeline.run_checked}'s resume contract), so
    the artifacts equal an uninterrupted run's, byte for byte.

    The per-job event log (loading, per-stage progress, [L207]
    diagnostics, settlement) is kept in memory and served by
    [events]/[watch]; it is not persisted — a restarted daemon serves
    a settled job's artifacts, not its history. *)

type t

type job_state = Queued | Running | Done | Failed | Cancelled

val state_to_string : job_state -> string
(** The wire name: [queued], [running], [done], [failed], [cancelled]. *)

val settled_state : cancel_requested:bool -> succeeded:bool -> job_state
(** How a run settles: [Done] whenever the runner returned a result
    (a cancel that landed after the run's last poll does not discard
    complete artifacts), [Cancelled] when it returned an error after a
    cancel tripped its token, [Failed] otherwise. *)

val create :
  ?max_jobs:int -> ?state_dir:string -> socket:string -> unit -> t
(** [max_jobs] (default 2) runner threads; [max_jobs = 0] accepts and
    persists submissions without running them (drained by a restart —
    also how tests stage a "crashed mid-queue" daemon). [state_dir] is
    created if missing and scanned for jobs a previous daemon left
    behind. Nothing is bound until {!start}. *)

val start : t -> unit
(** Bind the socket (an existing file at the path is replaced), spawn
    the acceptor and runner threads, and return. Re-enqueued jobs from
    the state dir start running immediately. *)

val stop : t -> unit
(** Stop accepting connections and new work, wait for running jobs to
    settle, close the socket and join every thread. Queued jobs stay
    queued in the state dir (a later daemon picks them up); without a
    state dir they are lost. Idempotent. *)

val run : t -> unit
(** {!start} then block until a [shutdown] request (or {!stop} from
    another thread) — the CLI entry point. *)

val socket : t -> string
