exception Io_fault of string

exception Crash of string
(* A simulated power loss at a fault point: unlike Io_fault it is NOT
   caught by [with_retries] (you cannot retry a dead process) and must
   not be caught by any in-path cleanup handler — the WAL recovery
   protocol (lib/storage/wal.ml) is what survives it. *)

type config = {
  probability : float;
  seed : int;
  max_retries : int;
  backoff_ms : float;
  alloc_probability : float;
}

let default_config =
  {
    probability = 0.0;
    seed = 0;
    max_retries = 6;
    backoff_ms = 0.05;
    alloc_probability = 0.0;
  }

type stats = {
  injected : int;
  retried : int;
  escaped : int;
  backoff_ms_total : float;
  alloc_injected : int;
}

let zero_stats =
  {
    injected = 0;
    retried = 0;
    escaped = 0;
    backoff_ms_total = 0.0;
    alloc_injected = 0;
  }

let current = ref default_config
let st = ref zero_stats

(* kill-at-fault-point harness state (see below) *)
let draw_count = ref 0
let crash_armed : int option ref = ref None
let fault_armed : int option ref = ref None

(* splitmix64: every draw is a function of (seed, draw index) only, so a
   fault trace is reproducible from the config alone *)
let prng_state = ref 0L

let next_u64 () =
  let open Int64 in
  prng_state := add !prng_state 0x9E3779B97F4A7C15L;
  let z = !prng_state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let draw () =
  (* uniform in [0, 1) from the top 53 bits *)
  Int64.to_float (Int64.shift_right_logical (next_u64 ()) 11)
  /. 9007199254740992.0

let config () = !current

let enabled () =
  !current.probability > 0.0 || !current.alloc_probability > 0.0

let configure ?seed ?max_retries ?backoff_ms ?alloc_probability probability =
  let c = !current in
  let seed = Option.value seed ~default:c.seed in
  let clamp p = Float.max 0.0 (Float.min 1.0 p) in
  current :=
    {
      probability = clamp probability;
      seed;
      max_retries = Option.value max_retries ~default:c.max_retries;
      backoff_ms = Option.value backoff_ms ~default:c.backoff_ms;
      alloc_probability =
        clamp (Option.value alloc_probability ~default:c.alloc_probability);
    };
  prng_state := Int64.of_int seed;
  st := zero_stats;
  draw_count := 0;
  crash_armed := None;
  fault_armed := None

let disable () =
  current := { !current with probability = 0.0; alloc_probability = 0.0 }

let stats () = !st

(* ---------- the deterministic kill-at-fault-point harness ----------

   Every [inject] call is a numbered fault point, counted even when
   injection is disabled.  The crash-recovery corpus (test/test_wal.ml)
   enumerates a statement's points once, then re-runs it with a crash —
   or a guaranteed one-shot fault — armed at each point in turn.  Both
   armings are one-shot: they disarm as they fire, so the unwound
   run's remaining charges are unaffected. *)

let draws () = !draw_count
let arm_crash ~at = crash_armed := Some at
let arm_fault ~at = fault_armed := Some at

let disarm () =
  crash_armed := None;
  fault_armed := None

let inject site =
  incr draw_count;
  (match !crash_armed with
  | Some n when !draw_count >= n ->
      crash_armed := None;
      raise (Crash site)
  | _ -> ());
  (match !fault_armed with
  | Some n when !draw_count >= n ->
      fault_armed := None;
      st := { !st with injected = !st.injected + 1 };
      raise (Io_fault site)
  | _ -> ());
  let c = !current in
  if c.probability > 0.0 && draw () < c.probability then begin
    st := { !st with injected = !st.injected + 1 };
    raise (Io_fault site)
  end

(* Allocation pressure: a seeded decision that the active row budget
   just exhausted.  This module cannot see (or depend on) the guard, so
   it only answers the question; the caller — an evaluator about to
   materialize an intermediate — raises the actual
   [Guard.Killed (Budget_exceeded Rows)], making the unwind
   byte-for-byte the one a real exhaustion takes. *)
let alloc_should_fail () =
  let c = !current in
  c.alloc_probability > 0.0
  && draw () < c.alloc_probability
  && begin
       st := { !st with alloc_injected = !st.alloc_injected + 1 };
       true
     end

(* The backoff sleeper is pluggable.  The default waits out the backoff
   in NO time at all: backoff is an I/O-scheduling delay, and this
   engine's time is simulated — a real [Unix.sleepf] here (the PR 2
   behavior) blocked the whole process for every retry storm.  The
   cooperative scheduler substitutes a sleeper that suspends only the
   retrying task until the virtual clock passes the backoff, so
   concurrent statements keep the (virtual) disk busy meanwhile; the
   cumulative pause is always recorded in [backoff_ms_total]. *)
let default_sleeper (_ms : float) = ()
let sleeper = ref default_sleeper
let set_sleeper f = sleeper := f

(* attempt [attempt] of [f x] just raised [e]: give up, or back off and
   run again.  Only a fault gets here, so the first attempt, the one
   that almost always succeeds, sets up nothing but its handler. *)
let rec retry c f x attempt e =
  if attempt >= c.max_retries then begin
    st := { !st with escaped = !st.escaped + 1 };
    raise e
  end
  else begin
    let pause = c.backoff_ms *. (2.0 ** float_of_int attempt) in
    st :=
      {
        !st with
        retried = !st.retried + 1;
        backoff_ms_total = !st.backoff_ms_total +. pause;
      };
    !sleeper pause;
    try f x with Io_fault _ as e -> retry c f x (attempt + 1) e
  end

let retrying f x =
  let c = !current in
  try f x with Io_fault _ as e -> retry c f x 0 e

let with_retries f = retrying f ()
