module Guard = Nra_guard.Guard
module Iosim = Nra_storage.Iosim

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Sleep : float -> unit Effect.t

type task_status =
  | Ready of (unit -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Finished

(* A slice boundary allocates nothing of its own: the clocks live in
   flat float records ([Iosim.mark], [clock]), the counters are mutable
   ints, each task carries its [Some] and its yield handler from birth,
   and no closure is built per slice.  A boundary that no switch could
   follow runs in place; one that suspends allocates only what
   [perform] itself needs, plus the [Suspended] box of the captured
   continuation. *)

type task = {
  id : int;
  sched : t;  (* the scheduler that owns it, read by the yield hook *)
  prio : unit -> int;
  mutable status : task_status;
  mutable wake_at : float option;  (* sleeping until this virtual ms *)
  mutable gctx : Guard.ctx;  (* detached guard context while suspended *)
  slice_start : Iosim.mark;  (* io_now_ms when last scheduled in *)
  mutable last_run : int;  (* scheduling seqno, for round-robin *)
  mutable self : task option;  (* [Some] of this task, built once *)
}

and t = {
  q_ms : float;
  chooser : (now:float -> int list -> int) option;
  clk : clock;
  io : Iosim.mark;  (* the latest io_now_ms reading *)
  mutable stop : float;  (* [advance_to]'s target; infinity otherwise *)
  mutable tasks : task list;  (* live tasks, oldest first *)
  mutable seq : int;
  mutable next_id : int;
  mutable n_spawned : int;
  mutable n_finished : int;
  mutable n_slices : int;
  mutable n_yields : int;
  mutable n_sleeps : int;
  mutable n_woken : int;
  mutable max_live : int;
}

and clock = {
  mutable vclock : float;  (* ms; sampled at the last sync *)
  mutable io_mark : float;  (* io_now_ms at that sync *)
  mutable idle_jumped : float;
}

type stats = {
  spawned : int;
  finished : int;
  slices : int;
  yields : int;
  sleeps : int;
  woken : int;
  idle_jumped_ms : float;
  max_live : int;
}

let default_quantum_ms = 0.5

(* [Float.max 0.0 d], bit for bit, without a call that boxes [d] *)
let[@inline] clamp0 d = if d > 0.0 || d <> d then d else 0.0

(* The clock between syncs: whatever the disk ledger accrued since the
   last sync belongs to virtual time.  The clamp matters: an Auto
   fallback uncharges its failed attempt's I/O from the global ledger
   (possibly across yields, since Auto statements interleave), which
   can pull the ledger below the mark — the clock freezes over such a
   stretch rather than rewinding, staying monotone. *)
let now t =
  Iosim.sample_ms t.io;
  t.clk.vclock +. clamp0 (t.io.ms -. t.clk.io_mark)

(* [now t >= target], without returning a float *)
let reached t target =
  Iosim.sample_ms t.io;
  t.clk.vclock +. clamp0 (t.io.ms -. t.clk.io_mark) >= target

let sync t =
  Iosim.sample_ms t.io;
  let c = t.clk in
  c.vclock <- c.vclock +. clamp0 (t.io.ms -. c.io_mark);
  c.io_mark <- t.io.ms

let stats t =
  {
    spawned = t.n_spawned;
    finished = t.n_finished;
    slices = t.n_slices;
    yields = t.n_yields;
    sleeps = t.n_sleeps;
    woken = t.n_woken;
    idle_jumped_ms = t.clk.idle_jumped;
    max_live = t.max_live;
  }

let finished tk = match tk.status with Finished -> true | _ -> false

let alive t =
  List.fold_left (fun n tk -> if finished tk then n else n + 1) 0 t.tasks

(* ---------- the global dispatch point ----------

   One task runs at a time, engine-wide; the guard yield hook and the
   fault backoff sleeper are process globals, so they dispatch on
   whichever task is currently in a slice. *)

let current : task option ref = ref None
let checkpoint_io = { Iosim.ms = 0.0 }

let runnable t tk =
  match tk.status with
  | Finished -> false
  | Ready _ | Suspended _ -> (
      match tk.wake_at with None -> true | Some w -> reached t w)

(* the round-robin order: the smallest (priority class, last-run
   seqno, id) wins — round-robin within a class, urgent class first *)
let before a b =
  let pa = a.prio () and pb = b.prio () in
  pa < pb
  || pa = pb
     && (a.last_run < b.last_run || (a.last_run = b.last_run && a.id < b.id))

(* whether some runnable task other than the running [tk] comes
   [before] it, i.e. whether [pick] would now choose another task *)
let rec other_first t tk = function
  | [] -> false
  | x :: rest ->
      (x != tk && runnable t x && before x tk) || other_first t tk rest

(* A quantum expiry suspends the task only when a switch could follow:
   a chooser decides every switch, [advance_to] returns once the clock
   reaches its target, or another runnable task comes first in [pick]'s
   order.  With none of these, the boundary runs in place, with the
   accounting of a yield/resume pair — the clock synced, the slice
   counted and the slice start re-sampled — and no continuation.  The
   task's guard scopes stay attached: no other task runs before the
   next slice, so they measure on from their own bases, and the next
   suspension folds both slices at once. *)
let boundary t tk =
  sync t;
  t.seq <- t.seq + 1;
  tk.last_run <- t.seq;
  t.n_slices <- t.n_slices + 1;
  Iosim.sample_ms tk.slice_start

let hook () =
  match !current with
  | None -> ()
  | Some tk ->
      (* runs at every guard checkpoint: the slice test reads the
         simulated clock into a flat record, so a checkpoint allocates
         nothing *)
      Iosim.sample_ms checkpoint_io;
      let t = tk.sched in
      if checkpoint_io.ms -. tk.slice_start.ms >= t.q_ms then
        if
          Option.is_some t.chooser
          || reached t t.stop
          || other_first t tk t.tasks
        then Effect.perform Yield
        else boundary t tk

let sleeper ms =
  match !current with
  | None -> ()  (* outside any task: the default virtual no-op *)
  | Some _ ->
      (* inside a critical section the task may not suspend (an Auto
         attempt's I/O rollback window): wait out the backoff as the
         no-op default does, still recorded by the fault layer *)
      if not (Guard.yields_suppressed ()) then
        Effect.perform (Sleep (Float.max 0.0 ms))

(* Voluntary virtual sleep, for spin-waits (the server's lock-acquire
   loop): inside a scheduled task it suspends on the virtual clock so
   other tasks run and the clock advances; outside any task (or in a
   no-yield critical section) it is a no-op and the caller's loop
   resolves immediately in the single-statement world. *)
let sleep_for = sleeper

let hooks_installed = ref false

let install_hooks () =
  if not !hooks_installed then begin
    hooks_installed := true;
    Guard.set_yield_hook (Some hook);
    Nra_storage.Fault.set_sleeper sleeper
  end

let create ?(quantum_ms = default_quantum_ms) ?chooser () =
  install_hooks ();
  let io = { Iosim.ms = 0.0 } in
  Iosim.sample_ms io;
  {
    q_ms = Float.max 0.0 quantum_ms;
    chooser;
    clk = { vclock = 0.0; io_mark = io.ms; idle_jumped = 0.0 };
    io;
    stop = infinity;
    tasks = [];
    seq = 0;
    next_id = 0;
    n_spawned = 0;
    n_finished = 0;
    n_slices = 0;
    n_yields = 0;
    n_sleeps = 0;
    n_woken = 0;
    max_live = 0;
  }

let spawn t ?(prio = fun () -> 1) body =
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  let tk =
    {
      id;
      sched = t;
      prio;
      status = Ready body;
      wake_at = None;
      gctx = Guard.empty_ctx;
      slice_start = { Iosim.ms = 0.0 };
      last_run = 0;
      self = None;
    }
  in
  tk.self <- Some tk;
  t.tasks <- t.tasks @ [ tk ];
  t.n_spawned <- t.n_spawned + 1;
  t.max_live <- Int.max t.max_live (alive t);
  id

(* ---------- one slice ---------- *)

(* Built once per task, when its body first runs; a yield returns the
   handler's own [Some], so handling one builds nothing. *)
let handler t tk : (unit, unit) Effect.Deep.handler =
  let on_yield =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        tk.status <- Suspended k;
        tk.gctx <- Guard.save_ctx ();
        t.n_yields <- t.n_yields + 1)
  in
  {
    Effect.Deep.retc =
      (fun () ->
        tk.status <- Finished;
        tk.gctx <- Guard.empty_ctx;
        t.n_finished <- t.n_finished + 1);
    exnc =
      (fun e ->
        (* task bodies trap their own errors into outcomes; anything
           escaping is a scheduler bug — mark the task dead so the run
           loop cannot spin on it, then let the caller see the raise *)
        tk.status <- Finished;
        t.n_finished <- t.n_finished + 1;
        raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Yield -> on_yield
        | Sleep ms ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                tk.status <- Suspended k;
                tk.wake_at <- Some (now t +. ms);
                tk.gctx <- Guard.save_ctx ();
                t.n_sleeps <- t.n_sleeps + 1)
        | _ -> None);
  }

let run_slice t tk =
  match tk.status with
  | Ready body -> Effect.Deep.match_with body () (handler t tk)
  | Suspended k ->
      tk.status <- Finished;
      (* resumes under the original handler *)
      Effect.Deep.continue k ()
  | Finished -> ()

let end_slice t saved host_ctx =
  current := saved;
  Guard.restore_ctx host_ctx;
  sync t

(* Run [tk] until it yields, sleeps, or finishes.  The slice happens
   inside the task's own guard context; the host's ambient context (if
   the caller sits under a budget of its own) is detached around it. *)
let step t tk =
  t.seq <- t.seq + 1;
  tk.last_run <- t.seq;
  t.n_slices <- t.n_slices + 1;
  (match tk.wake_at with
  | Some _ ->
      tk.wake_at <- None;
      t.n_woken <- t.n_woken + 1
  | None -> ());
  let host_ctx = Guard.save_ctx () in
  let saved = !current in
  current := tk.self;
  Guard.restore_ctx tk.gctx;
  tk.gctx <- Guard.empty_ctx;
  Iosim.sample_ms tk.slice_start;
  match run_slice t tk with
  | () -> end_slice t saved host_ctx
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      end_slice t saved host_ctx;
      Printexc.raise_with_backtrace e bt

(* ---------- the run loop ---------- *)

let prune t =
  if List.exists finished t.tasks then
    t.tasks <- List.filter (fun tk -> not (finished tk)) t.tasks

(* the first runnable task that no later one is [before]; a lone
   candidate is taken without consulting its priority *)
let rec first_in_order t best = function
  | [] -> best
  | tk :: rest ->
      if not (runnable t tk) then first_in_order t best rest
      else (
        match best with
        | Some b when not (before tk b) -> first_in_order t best rest
        | _ -> first_in_order t tk.self rest)

let pick t =
  prune t;
  match t.chooser with
  | None -> first_in_order t None t.tasks
  | Some choose -> (
      match List.filter (runnable t) t.tasks with
      | [] -> None
      | candidates ->
          let id =
            choose ~now:(now t)
              (List.sort compare (List.map (fun tk -> tk.id) candidates))
          in
          Some
            (match List.find_opt (fun tk -> tk.id = id) candidates with
            | Some tk -> tk
            | None -> List.hd candidates))

let earliest_wake t =
  List.fold_left
    (fun acc tk ->
      match (tk.status, tk.wake_at) with
      | Finished, _ | _, None -> acc
      | _, Some w -> (
          match acc with Some a -> Some (Float.min a w) | None -> Some w))
    None t.tasks

let jump_to t target =
  let n = now t in
  if target > n then begin
    t.clk.idle_jumped <- t.clk.idle_jumped +. (target -. n);
    t.clk.vclock <- target;
    Iosim.sample_ms t.io;
    t.clk.io_mark <- t.io.ms
  end

let advance_to t target =
  t.stop <- target;
  let rec drive () =
    if reached t target then ()
    else
      match pick t with
      | Some tk ->
          step t tk;
          drive ()
      | None -> (
          match earliest_wake t with
          | Some w when w <= target ->
              jump_to t w;
              drive ()
          | Some _ | None -> jump_to t target)
  in
  drive ()

let run_until_idle t =
  t.stop <- infinity;
  let rec drive () =
    match pick t with
    | Some tk ->
        step t tk;
        drive ()
    | None -> (
        match earliest_wake t with
        | Some w ->
            jump_to t w;
            drive ()
        | None -> prune t)
  in
  drive ()

let pp_stats ppf s =
  Format.fprintf ppf
    "scheduler: %d task(s) (%d done, peak %d live), %d slice(s), %d \
     yield(s), %d sleep(s)/%d wake(s), %.2f ms idle-jumped"
    s.spawned s.finished s.max_live s.slices s.yields s.sleeps s.woken
    s.idle_jumped_ms
