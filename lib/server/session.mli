(** A client session: one cancellation token plus one aggregate budget
    spent down across the session's statements.

    The guard (PR 2) bounds a {e single} statement; a session bounds a
    {e client}.  Its totals — wall-clock, simulated I/O, intermediate
    rows — are debited by every statement the session runs, so the Nth
    statement of a profligate client is killed even though each
    statement individually looked harmless.  Per-statement overrides
    only ever {e tighten} the session allowance
    ([Guard.min_budget]), never widen it.

    Closing a session cancels its token — cooperatively killing any
    running statement — and marks it so the server rejects later
    submissions and flushes its queued work. *)

type t

val create :
  ?label:string ->
  ?wall_ms:float ->
  ?sim_io_ms:float ->
  ?rows:int ->
  unit ->
  t
(** A fresh open session with the given aggregate totals (each
    unlimited when omitted) and a fresh cancel token. *)

val id : t -> int
(** Process-unique, monotonically assigned. *)

(** {1 The aggregate budget} *)

val remaining : t -> Nra_guard.Guard.budget
(** What is left right now, as a budget carrying the session token —
    ready to be intersected with a per-statement override and passed to
    the engine.  Limits are clamped at 0: an exhausted session yields a
    zero allowance, which kills the next statement at its first
    checkpoint rather than silently unbounding it. *)

val urgent : t -> within:float -> bool
(** Whether the session's simulated-I/O allowance left ({!remaining}'s
    [sim_io_ms]) is at most [within] ms; [false] when it is unlimited.
    Reads the session in place and allocates nothing, so a scheduler
    priority may call it at every pick. *)

val charge : t -> Nra_guard.Guard.spend -> unit
(** Debit one statement's consumption (from [Guard.last_spend]) and
    count the statement. *)

val spent : t -> Nra_guard.Guard.spend
(** Cumulative consumption across all charged statements. *)

val statements : t -> int
(** Statements charged so far. *)

(** {1 Lifecycle} *)

val close : t -> unit
(** Cancel the token and mark the session closed.  Idempotent. *)

val closed : t -> bool

val pp : Format.formatter -> t -> unit
(** The [\session] report body: label, state, statements, and
    spent/total per resource. *)
