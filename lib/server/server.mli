(** The serving layer: sessions + admission + plan cache over one
    catalog, with statements run by the cooperative {!Scheduler}.

    The engine is single-threaded, so the server models a concurrent
    population of clients in {e virtual time} (see {!Admission}): every
    submission carries an arrival time on a monotone millisecond clock.
    An admitted statement becomes a {e resumable scheduler task} that
    interleaves with every other in-flight statement at the guard
    checkpoints — time-sliced by [quantum_ms] of simulated I/O — instead
    of occupying its slot host-synchronously as in PR 3.  Queued
    statements run when a slot frees — or time out, or are flushed by
    session close.  For a given workload the schedule, admission
    decisions, latencies and rejections are all deterministic.

    The serial path ({!exec}) is what the CLI REPL uses: one client,
    statements submitted back-to-back at the clock, so admission always
    grants a slot and the value added is the session budget, the
    cancellation token, and the plan cache.  The concurrent path
    ({!submit} with explicit [~at] / {!drain} / {!finish}) is what the
    bench workload driver uses. *)

type config = {
  admission : Admission.config;
  cache_capacity : int;
  session_wall_ms : float option;  (** default per-session totals … *)
  session_sim_io_ms : float option;
  session_rows : int option;  (** … applied by {!session} *)
  strategy : Nra.strategy;
  quantum_ms : float;
      (** simulated-I/O per scheduler slice; [infinity] restores PR 3's
          slot-serialized behavior *)
  urgent_ms : float;
      (** a statement whose session has at most this much simulated-I/O
          allowance left is boosted ahead of bulk work *)
  domains : int option;
      (** worker-domain count for intra-query parallelism, installed
          ({!Nra.configure}) at {!create}; [None] keeps the installed
          count.  A statement's parallel regions run to their barrier
          within its scheduler slice — see docs/PERF.md. *)
}

val default_config : config
(** {!Admission.default_config}, cache of 128, unlimited sessions,
    [Auto], {!Scheduler.default_quantum_ms}, 5 ms urgency threshold,
    pool size left as-is. *)

type t

val create : ?config:config -> Nra.Catalog.t -> t
(** Snapshots the installed engine config ({!Nra.config}, after
    [domains] is applied): the server's plan cache prepares, and its
    statements run, under that snapshot whatever is installed later. *)

val cache : t -> Plan_cache.t

val scheduler : t -> Scheduler.t
(** The server's scheduler — exposed for stats and for the bench
    driver. *)

val now : t -> float
(** The virtual clock, in ms (see {!Scheduler.now}): monotone; advances
    with the simulated-I/O charges of running statements and jumps over
    idle gaps. *)

val session :
  t ->
  ?label:string ->
  ?wall_ms:float ->
  ?sim_io_ms:float ->
  ?rows:int ->
  unit ->
  Session.t
(** A new session; budget totals default to the server config's
    session defaults. *)

val close_session : t -> Session.t -> unit
(** Cancel the session's token, flush its queued statements (each
    completes as [Error Cancelled], visible in {!drain}) and reject its
    future submissions.  An in-flight statement of the session is
    killed at its next checkpoint (the token trips the guard). *)

(** {1 Statement outcomes} *)

type outcome = {
  session_id : int;
  sql : string;
  submitted_at : float;
  started_at : float option;  (** [None]: never got a slot *)
  finished_at : float;
  result : (Nra.exec_result, Nra.Exec_error.t) result;
}

val latency_ms : outcome -> float
(** [finished_at -. submitted_at] — queue wait plus execution. *)

(** {1 The concurrent path} *)

val submit :
  t ->
  ?at:float ->
  ?guard:Nra.Guard.budget ->
  Session.t ->
  string ->
  [ `Done of outcome | `Running of int | `Queued ]
(** One statement arriving at [at] (default: the current clock).  The
    clock never goes backwards — a stale [at] is clamped forward for
    scheduling — but [submitted_at] keeps the caller's arrival time, so
    {!latency_ms} counts time the server spent on other work past the
    arrival (the open-loop rule: a slice that overshoots an arrival
    must not erase that statement's wait).
    First drives the scheduler to [at] — in-flight statements interleave
    up to the arrival, completions free slots and promote waiters, and
    queue timeouts expire, accumulating outcomes for {!drain}.  Then:

    - closed session: [`Done] with [Error (Rejected _)];
    - slot free: the statement is spawned as a scheduler task under
      [Guard.min_budget (Session.remaining session) guard] —
      [`Running id]; it runs (interleaved) as the clock is driven by
      later submissions or {!finish}, charges the session
      ({!Session.charge}) when it completes, and its outcome arrives
      via {!drain} / {!finish};
    - queue has room: [`Queued] (outcome arrives via {!drain});
    - otherwise: [`Done] with [Error (Rejected "admission queue full")].

    Queries go through the plan cache; per-statement [guard] only ever
    tightens the session allowance (limits merge element-wise min).
    When [guard] carries a cancel token it governs the statement in
    place of the session token — the REPL scopes its SIGINT token this
    way; a closed session is still rejected up front either way.
    Non-query statements (DML, [WITH], [ANALYZE]) run as scheduler
    critical sections ({!Nra.Guard.with_no_yield}): single-writer
    atomicity for read-validate-commit. *)

val drain : t -> outcome list
(** The outcomes accumulated since the last drain — completed
    statements, queue timeouts ([Error (Queue_timeout _)] stamped at
    the missed deadline), and cancellations from session close — in
    completion order. *)

val finish : t -> outcome list
(** Run the scheduler until nothing is in flight or queued (every
    waiter is promoted and run, or times out), then drain. *)

(** {1 The serial path} *)

val exec :
  t ->
  ?guard:Nra.Guard.budget ->
  Session.t ->
  string ->
  (Nra.exec_result, Nra.Exec_error.t) result
(** {!submit} with the result awaited: every in-flight statement is
    retired first (the serial client issues its next statement after
    the previous completed), then the scheduler runs this statement to
    completion and its outcome — and only its — is claimed; concurrent
    completions stay for {!drain}. *)

(** {1 Reports} *)

val admission_stats : t -> Admission.stats

val report : t -> Session.t -> string
(** The [\session] REPL report: the session ({!Session.pp}), the
    admission counters, the plan-cache counters and the scheduler
    counters. *)
