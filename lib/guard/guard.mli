(** Query guard: resource budgets, cooperative cancellation, and the
    kill events the engine's graceful-degradation story is built on.

    The ROADMAP's north star is a server: no single query may run
    unbounded.  A {!budget} caps three resources —

    - {b wall-clock} milliseconds of real elapsed time;
    - {b simulated I/O} milliseconds as accrued by {!Nra_storage.Iosim}
      (the deterministic resource: the same query over the same data
      always accrues the same charges, so budget kills in tests are
      reproducible);
    - {b intermediate rows} materialized by the evaluators (the nested
      relational approach's wide intermediates, nested-iteration's
      candidate streams);

    — plus a cooperative {!token} a client (or a SIGINT handler) can
    cancel from outside.

    Enforcement is cooperative: every evaluator's row-producing loop
    calls {!tick} (and {!add_rows} where intermediates materialize).
    When a limit is crossed, {!tick} raises {!Killed}, which unwinds to
    the facade — no state is mutated mid-DML because all DML validates
    fully before committing (see docs/ROBUSTNESS.md).

    On top of plain kills, [Auto] in {!Nra} runs its chosen plan under a
    budget derived from the plan's own cost estimate; a kill there is
    evidence of a cost-model misestimate and triggers fallback to the
    always-applicable [Nra_optimized] strategy, counted in {!events}.

    Global and single-threaded, like {!Nra_storage.Iosim}. *)

type resource = Wall_clock | Sim_io | Rows

val resource_to_string : resource -> string

type kill = Budget_exceeded of resource | Cancelled

exception Killed of kill
(** Raised by {!tick} / {!add_rows}; unwinds the evaluator. *)

(** {1 Cancellation tokens} *)

type token

val token : unit -> token
val cancel : token -> unit
(** Safe to call from a signal handler: sets one mutable flag. *)

val cancelled : token -> bool

(** {1 Budgets} *)

type budget = {
  wall_ms : float option;
  sim_io_ms : float option;
  max_rows : int option;
  cancel_on : token option;
}

val unlimited : budget

val budget :
  ?wall_ms:float ->
  ?sim_io_ms:float ->
  ?max_rows:int ->
  ?cancel_on:token ->
  unit ->
  budget

val min_budget : budget -> budget -> budget
(** Element-wise tighter of the two; either cancel token cancels (the
    first present one wins — callers combine an ambient budget with a
    derived one, which shares the ambient token). *)

val is_unlimited : budget -> bool

val with_budget : budget -> (unit -> 'a) -> 'a
(** Install the budget (fresh wall-clock and I/O baselines), run the
    thunk, restore the previously active budget — even on exceptions.
    Nested installs are independent except that intermediate rows
    produced inside also count against the enclosing budget. *)

val active : unit -> budget option
(** The installed budget, if any. *)

type spend = { wall_ms : float; sim_io_ms : float; rows : int }
(** What one {!with_budget} scope actually consumed. *)

val last_spend : unit -> spend
(** The spend of the most recently exited {!with_budget} scope —
    including one that exited by a {!Killed} unwind.  Nested scopes
    overwrite it as they exit, outermost last, so a caller that installed
    a budget reads its own statement's consumption immediately after
    [with_budget] returns.  The session layer ([nra.server]) uses this to
    spend a statement's cost down against its session's aggregate
    budget.  Zero before any budget has been installed. *)

val remaining : unit -> budget
(** What is left of the active budget right now ([unlimited] when none
    is installed); limits are clamped at 0.  Carries the active cancel
    token, so a sub-budget derived from it stays cancellable. *)

val tick : unit -> unit
(** The evaluator checkpoint: checks cancellation and the
    simulated-I/O limit every call and the wall clock every 32nd call
    (cheap when no budget is installed), then gives the registered
    yield hook (if any) the chance to suspend the running scheduler
    task.
    @raise Killed when a limit is crossed. *)

val add_rows : int -> unit
(** Count intermediate-result rows against the active (and any
    enclosing) budget, then offer the yield hook a switch point, like
    {!tick}.
    @raise Killed when the row limit is crossed. *)

val absorb : ticks:int -> rows:int -> unit
(** Merge a parallel region's worker ledgers in one call: credit
    [ticks] deferred checkpoints and [rows] intermediate rows to the
    active scope, then {!recheck} every limit.  This is the guard half
    of the ledger-merge contract (see [nra.pool] and docs/PERF.md):
    worker domains never touch the scope stack, so budget enforcement
    inside a region is coarse — entry and barrier — while cancellation
    stays per-morsel.  Never yields (the caller is still inside its
    [with_no_yield] region).
    @raise Killed when a limit is crossed. *)

(** {1 Scheduler integration}

    The cooperative scheduler ([nra.server]) runs each statement as a
    resumable task.  Checkpoints are its switch points: {!tick} and
    {!add_rows} call the registered {e yield hook} after their budget
    checks, and the hook — which lives in the scheduler, where the
    effect handler is — decides whether the task's quantum has expired
    and suspends it (or, with no task to switch to, lets it run on in
    place, its scopes still attached and measuring).  Because a task is
    descheduled mid-statement, its budget scopes cannot measure
    consumption against fixed start marks: {!save_ctx} folds the
    running slice into each scope's accumulator and detaches the scope
    stack, {!restore_ctx} reattaches it and rebases, so a statement is
    only ever charged for wall-clock and simulated-I/O that passed while
    it was actually scheduled. *)

val set_yield_hook : (unit -> unit) option -> unit
(** Register (or clear) the checkpoint yield hook.  Global, like the
    rest of the guard; the scheduler saves and restores the previous
    hook around its run loop. *)

val with_no_yield : (unit -> 'a) -> 'a
(** Run the thunk with the yield hook suppressed (nestable): a
    scheduler critical section.  Used where interleaving would break a
    serial invariant — DML's read-validate-commit (single-writer
    atomicity) and the Domain pool's fork-join regions.  Auto's
    killable attempt no longer needs it: its rollback is a per-task
    {!Nra_storage.Iosim} ledger that tolerates interleaved charges. *)

val yields_suppressed : unit -> bool
(** True inside {!with_no_yield}.  The scheduler's backoff sleeper
    consults this: a fault retry inside a critical section must wait
    virtually without suspending the task. *)

type ctx
(** A task's detached guard context: its whole stack of budget scopes
    with accruals folded, plus its open per-task {!Nra_storage.Iosim}
    ledgers (Auto's attempt ledger travels with the task so it only
    tallies charges from the task's own run slices). *)

val empty_ctx : ctx
(** The context of a task that has not started yet (no scopes). *)

val save_ctx : unit -> ctx
(** Fold the running slice into every active scope, detach and return
    the scope stack, leaving no budget installed.  Called by the
    scheduler when a task suspends (and around its own run loop, to
    shield the host's ambient budget from the tasks'). *)

val restore_ctx : ctx -> unit
(** Reattach a detached context and rebase its slices to "now" on both
    clocks.  Called when a task is scheduled in. *)

val recheck : unit -> unit
(** An immediate, unconditional check of {e every} limit of the active
    budget (including the wall clock, which {!tick} only samples).  The
    facade calls this after an Auto attempt is killed and rolled back,
    to distinguish "the attempt's derived budget blew" (degrade and
    rerun) from "the client's own budget is exhausted" (re-raise — no
    rerun could succeed).
    @raise Killed when a limit is crossed. *)

(** {1 Degradation events} *)

type events = {
  budget_kills : int;  (** queries killed over budget *)
  cancellations : int;  (** queries killed by a cancelled token *)
  auto_fallbacks : int;
      (** Auto attempts killed and rerun on [Nra_optimized] *)
}

val events : unit -> events
val reset_events : unit -> unit

val note_fallback : unit -> unit
(** Called by the facade when Auto degrades; public so alternative
    front ends can record their own fallbacks. *)

val note_kill : kill -> unit
(** Called by the facade when a {!Killed} surfaces as a user-facing
    error (not on every raise: Auto's killed attempts that degrade
    successfully count only as fallbacks). *)
