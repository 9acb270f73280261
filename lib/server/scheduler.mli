(** Deterministic cooperative scheduler: truly interleaved statements
    on the virtual clock.

    PR 3's admission control admitted several statements "concurrently"
    but each one still ran host-synchronously and occupied its slot for
    its whole simulated-I/O duration — a long statement head-of-line
    blocked every short one behind it.  This module runs each admitted
    statement as a {e resumable task} (an OCaml 5 effect-handler
    coroutine): the task body is the unchanged evaluator code, and every
    [Guard.tick]/[add_rows] checkpoint offers a switch point through the
    guard's yield hook.  When a task has charged [quantum_ms] of
    simulated I/O since it was scheduled in, its slice ends.  If a
    switch could follow (a [chooser] is installed, the clock has reached
    the target of {!advance_to}, or another runnable task comes first
    in the round-robin order), the hook performs a yield effect, the scheduler
    captures the continuation, and the next task runs — so concurrent
    statements genuinely interleave on the shared virtual clock,
    deterministically: the schedule is a function of the arrival
    sequence, the I/O charges, and the quantum alone.  Otherwise the
    task starts its next slice in place, with the same accounting (the
    clock synced, its guard scopes folded, the slice counted) and no
    suspension: a lone task pays nothing for switches that could only
    resume it.

    {b The clock.}  Virtual time is the {!Nra_storage.Iosim} ledger (in
    ms) plus idle jumps: while any task runs, time advances exactly as
    fast as the simulated disk is charged; when every live task is
    asleep (fault-retry backoff) or the caller advances to a future
    arrival, the clock jumps without charges.  {!now} is monotone at
    every scheduling point.

    {b Policy.}  Deterministic round-robin within two priority classes:
    a task whose priority thunk reports [0] (the server maps "session
    sim-I/O budget nearly exhausted" to this) runs ahead of bulk work
    ([1]).  Priorities are re-read at every switch, so a session
    draining its budget mid-statement gets boosted at the next quantum.
    Tests can replace the policy wholesale with [~chooser] to drive
    {e randomized} schedules for interleaving-equivalence testing.

    {b Preemption.}  Budget enforcement stays in the guard: the check
    runs at every checkpoint {e before} the yield hook, so a statement
    whose budget trips mid-quantum is killed (its [Killed] unwind runs
    inside the task) within one quantum of exhaustion, never after
    another full slice.

    {b Sleeping.}  {!Nra_storage.Fault.with_retries} backoff is a
    scheduler sleep: the retrying task suspends until the virtual clock
    passes the backoff while other tasks keep the disk busy; no real
    wall-clock time passes.  Inside a [Guard.with_no_yield] critical
    section the sleep degrades to the default virtual no-op rather than
    suspending.

    Global and single-threaded like the rest of the engine: one task
    runs at a time, switches happen only at checkpoints, and the guard
    context (budget scopes, accruals) is detached and reattached around
    every switch so interleaved statements cannot observe each other's
    consumption. *)

type t

val create : ?quantum_ms:float -> ?chooser:(now:float -> int list -> int)
  -> unit -> t
(** A fresh scheduler with its clock at 0.  [quantum_ms] (default
    {!default_quantum_ms}) is how much simulated I/O a task may charge
    before its slice ends at the next checkpoint; [infinity] restores
    PR 3's slot-serialized behavior (a task runs to completion once
    scheduled).  [chooser] overrides the round-robin policy: it is
    given the current virtual time and the runnable task ids (ascending)
    and returns the id to run — used by the randomized
    interleaving-equivalence tests.  The first [create] registers the
    guard yield hook and the fault backoff sleeper (both global,
    dispatching on the currently running scheduler). *)

val default_quantum_ms : float
(** 0.5 ms of simulated I/O per slice. *)

val now : t -> float
(** The virtual clock, in ms: monotone at every scheduling point. *)

val spawn : t -> ?prio:(unit -> int) -> (unit -> unit) -> int
(** Register a task and return its id.  The body is not entered until
    the scheduler is next driven ({!advance_to} / {!run_until_idle});
    [prio] (default: constant [1]) is re-read at every switch point —
    smaller runs first.  Safe to call from inside a running task (a
    completion handler admitting queued work). *)

val alive : t -> int
(** Tasks spawned but not yet finished (running, runnable or asleep). *)

val advance_to : t -> float -> unit
(** Drive tasks until the clock reaches the target: runnable tasks are
    sliced (each slice advances the clock by the I/O it charges), due
    sleepers are woken, and when everything is idle the clock jumps.
    On return [now t >= target] (a final slice may overshoot it — I/O
    charges are lumpy).  This is how the server moves time forward to a
    statement's arrival. *)

val run_until_idle : t -> unit
(** Drive tasks (waking sleepers, jumping the clock over pure-sleep
    gaps) until every spawned task has finished. *)

type stats = {
  spawned : int;
  finished : int;
  slices : int;
      (** scheduling slices run: one each time a task is scheduled in,
          plus one per quantum expiry it runs on through in place *)
  yields : int;
      (** quantum expiries that suspended the task (yield effects
          handled); an expiry that no switch could follow is not one *)
  sleeps : int;  (** backoff sleeps taken as virtual suspensions *)
  woken : int;  (** sleeper wake-ups *)
  idle_jumped_ms : float;  (** clock advanced with no task running *)
  max_live : int;  (** peak concurrently live tasks *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val sleep_for : float -> unit
(** Voluntary virtual sleep for spin-waits (e.g. the server's
    table-lock acquisition loop).  Inside a scheduled task it suspends
    for [ms] on the virtual clock so other tasks run; outside any task,
    or within a no-yield critical section, it is a no-op. *)
