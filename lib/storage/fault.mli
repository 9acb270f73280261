(** Deterministic fault injection for the simulated storage layer.

    Production storage fails: pages go unreadable, fetches time out,
    caches return garbage under memory pressure.  This module lets the
    read paths fronted by {!Iosim} — sequential scans, index probes, and
    the {!Lru}-backed rowid fetches — raise transient {!Io_fault}s with
    a configured probability, drawn from a seeded PRNG so every run is
    reproducible.  The executors wrap those read paths in
    {!with_retries}, a bounded retry-with-exponential-backoff loop, so
    the whole abort/retry/fallback machinery (see docs/ROBUSTNESS.md)
    is testable end to end:

    - with [probability] in (0, 1), faults are {e transient}: a retry
      redraws the PRNG and almost surely succeeds within the bound;
    - with [probability = 1.0], faults are {e permanent}: the retry
      budget exhausts and the last {!Io_fault} escapes to the facade,
      which surfaces it as a structured [Io_error].

    Like {!Iosim}, everything is global and single-threaded.  The
    engine configuration's fault spec ([Nra.Engine_config.faults]) is
    installed through {!configure}. *)

exception Io_fault of string
(** A (simulated) failed storage read.  The payload names the site,
    e.g. ["scan"], ["probe"], ["fetch"]. *)

exception Crash of string
(** A simulated {e power loss} at a fault point, armed by
    {!arm_crash}.  Unlike {!Io_fault} it is not caught by
    {!with_retries} (a dead process cannot retry), must not be caught
    by in-path cleanup handlers, and escapes the {!Nra} facade raw —
    the write-ahead log's recovery ({!Wal.recover}) is the only thing
    that survives it.  The payload names the site. *)

type config = {
  probability : float;  (** per-read fault probability in [0, 1] *)
  seed : int;  (** PRNG seed; same seed + same read sequence = same faults *)
  max_retries : int;  (** attempts beyond the first in {!with_retries} *)
  backoff_ms : float;
      (** base backoff; attempt [k] waits out [backoff_ms * 2^k]
          through the pluggable {!set_sleeper} (a virtual pause by
          default: recorded, never slept in real time). *)
  alloc_probability : float;
      (** per-intermediate-materialization probability of an
          allocation-pressure fault (see {!alloc_should_fail}) *)
}

val default_config : config
(** Disabled: probabilities 0.0, seed 0, 6 retries, 0.05 ms backoff. *)

val config : unit -> config

val configure :
  ?seed:int ->
  ?max_retries:int ->
  ?backoff_ms:float ->
  ?alloc_probability:float ->
  float ->
  unit
(** [configure p] enables injection with probability [p] (clamped to
    [0, 1]), reseeds the PRNG, and resets {!stats}.
    [alloc_probability] additionally arms allocation-pressure faults. *)

val disable : unit -> unit
(** Probabilities back to 0.0; stats are kept for inspection. *)

val enabled : unit -> bool

val inject : string -> unit
(** Called by the storage read paths: draws the PRNG and raises
    [Io_fault site] with the configured probability.  Free (no draw)
    when disabled. *)

val draws : unit -> int
(** Total {!inject} calls so far — fault points are numbered even when
    injection is disabled, so a crash-recovery corpus can enumerate a
    statement's points deterministically (run it once, diff {!draws})
    and then re-run with {!arm_crash} at each point in turn. *)

val arm_crash : at:int -> unit
(** One-shot: raise {!Crash} at the first fault point whose
    {!draws}-count reaches [at], then disarm. *)

val arm_fault : at:int -> unit
(** One-shot: raise {!Io_fault} at the first fault point whose
    {!draws}-count reaches [at], then disarm — a {e guaranteed} fault
    at a chosen point regardless of [probability] (combine with
    [max_retries = 0] to force an escape there). *)

val disarm : unit -> unit
(** Clear both armings. *)

val with_retries : (unit -> 'a) -> 'a
(** Run the thunk, retrying up to [max_retries] extra attempts when it
    raises {!Io_fault}, sleeping an exponentially growing backoff
    between attempts (through the pluggable sleeper).  The final
    attempt's fault propagates. *)

val retrying : ('a -> 'b) -> 'a -> 'b
(** [retrying f x] is [with_retries (fun () -> f x)] without the
    closure: a per-chunk or per-row charge passes a top-level charge
    function and its argument, so a fault-free call allocates
    nothing. *)

val alloc_should_fail : unit -> bool
(** Allocation-pressure injection: with probability
    [alloc_probability], decide that the caller's row budget just
    exhausted (a seeded PRNG draw, counted in {!stats}).  This module
    cannot depend on the guard, so the {e caller} — an evaluator about
    to materialize an intermediate under a finite row budget — raises
    the [Guard.Killed (Budget_exceeded Rows)] itself, taking exactly
    the unwind a real exhaustion takes.  Callers must not consult this
    without an installed finite row budget: exhaustion of an unlimited
    budget is meaningless. *)

val set_sleeper : (float -> unit) -> unit
(** Replace how {!with_retries} waits out a backoff (argument in
    milliseconds).  The cooperative scheduler ([nra.server])
    substitutes a virtual-clock sleep that suspends only the retrying
    task — concurrent statements make progress during the backoff and
    no real wall-clock time passes; tests substitute a recorder. *)

val default_sleeper : float -> unit
(** The initial sleeper: a no-op — the pause is accounted in
    {!stats}.[backoff_ms_total] but never slept in real time.  (The
    old real-time [Unix.sleepf] path is gone: it blocked the whole
    process, which a server serving concurrent sessions cannot
    afford.) *)

type stats = {
  injected : int;  (** faults raised by {!inject} *)
  retried : int;  (** attempts re-run by {!with_retries} *)
  escaped : int;  (** faults that exhausted the retry budget *)
  backoff_ms_total : float;  (** cumulative sleep *)
  alloc_injected : int;  (** allocation-pressure faults granted *)
}

val stats : unit -> stats
