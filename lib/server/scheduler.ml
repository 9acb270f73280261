module Guard = Nra_guard.Guard

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Sleep : float -> unit Effect.t

type task_status =
  | Ready of (unit -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Finished

type task = {
  id : int;
  label : string;
  prio : unit -> int;
  mutable status : task_status;
  mutable wake_at : float option;  (* sleeping until this virtual ms *)
  mutable gctx : Guard.ctx;  (* detached guard context while suspended *)
  mutable slice_start_io : float;  (* io_now_ms when last scheduled in *)
  mutable last_run : int;  (* scheduling seqno, for round-robin *)
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

let zero_stats =
  {
    spawned = 0;
    finished = 0;
    slices = 0;
    yields = 0;
    sleeps = 0;
    woken = 0;
    idle_jumped_ms = 0.0;
    max_live = 0;
  }

type t = {
  q_ms : float;
  chooser : (now:float -> int list -> int) option;
  mutable vclock : float;  (* ms; sampled at the last sync *)
  mutable io_mark : float;  (* io_now_ms at that sync *)
  mutable tasks : task list;  (* live tasks, oldest first *)
  mutable seq : int;
  mutable next_id : int;
  mutable st : stats;
}

let default_quantum_ms = 0.5

let io_now_ms () = Nra_storage.Iosim.simulated_seconds () *. 1000.0

(* The clock between syncs: whatever the disk ledger accrued since the
   last sync belongs to virtual time.  The clamp matters: an Auto
   fallback uncharges its failed attempt's I/O from the global ledger
   (possibly across yields, since Auto statements interleave), which
   can pull the ledger below the mark — the clock freezes over such a
   stretch rather than rewinding, staying monotone. *)
let now t = t.vclock +. Float.max 0.0 (io_now_ms () -. t.io_mark)

let sync t =
  t.vclock <- now t;
  t.io_mark <- io_now_ms ()

let quantum_ms t = t.q_ms
let stats t = t.st
let alive t =
  List.length (List.filter (fun tk -> tk.status <> Finished) t.tasks)

(* ---------- the global dispatch point ----------

   One task runs at a time, engine-wide; the guard yield hook and the
   fault backoff sleeper are process globals, so they dispatch on
   whichever scheduler/task is currently in a slice. *)

let current : (t * task) option ref = ref None

let hook () =
  match !current with
  | None -> ()
  | Some (t, tk) ->
      (* runs at every guard checkpoint: the slice test compares the
         simulated clock in place, so a checkpoint allocates nothing *)
      if
        Nra_storage.Iosim.elapsed_ms_reached ~since_ms:tk.slice_start_io
          t.q_ms
      then Effect.perform Yield

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
  {
    q_ms = Float.max 0.0 quantum_ms;
    chooser;
    vclock = 0.0;
    io_mark = io_now_ms ();
    tasks = [];
    seq = 0;
    next_id = 0;
    st = zero_stats;
  }

let spawn t ?(prio = fun () -> 1) ?label body =
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  let tk =
    {
      id;
      label = (match label with Some l -> l | None -> Printf.sprintf "task-%d" id);
      prio;
      status = Ready body;
      wake_at = None;
      gctx = Guard.empty_ctx;
      slice_start_io = 0.0;
      last_run = 0;
    }
  in
  t.tasks <- t.tasks @ [ tk ];
  let live = alive t in
  t.st <-
    {
      t.st with
      spawned = t.st.spawned + 1;
      max_live = Int.max t.st.max_live live;
    };
  id

(* ---------- one slice ---------- *)

let handler t tk : (unit, unit) Effect.Deep.handler =
  {
    Effect.Deep.retc =
      (fun () ->
        tk.status <- Finished;
        tk.gctx <- Guard.empty_ctx;
        t.st <- { t.st with finished = t.st.finished + 1 });
    exnc =
      (fun e ->
        (* task bodies trap their own errors into outcomes; anything
           escaping is a scheduler bug — mark the task dead so the run
           loop cannot spin on it, then let the caller see the raise *)
        tk.status <- Finished;
        t.st <- { t.st with finished = t.st.finished + 1 };
        raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                tk.status <- Suspended k;
                tk.gctx <- Guard.save_ctx ();
                t.st <- { t.st with yields = t.st.yields + 1 })
        | Sleep ms ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                tk.status <- Suspended k;
                tk.wake_at <- Some (now t +. ms);
                tk.gctx <- Guard.save_ctx ();
                t.st <- { t.st with sleeps = t.st.sleeps + 1 })
        | _ -> None);
  }

(* Run [tk] until it yields, sleeps, or finishes.  The slice happens
   inside the task's own guard context; the host's ambient context (if
   the caller sits under a budget of its own) is detached around it. *)
let step t tk =
  t.seq <- t.seq + 1;
  tk.last_run <- t.seq;
  t.st <- { t.st with slices = t.st.slices + 1 };
  (match tk.wake_at with
  | Some _ ->
      tk.wake_at <- None;
      t.st <- { t.st with woken = t.st.woken + 1 }
  | None -> ());
  let host_ctx = Guard.save_ctx () in
  let saved = !current in
  current := Some (t, tk);
  Guard.restore_ctx tk.gctx;
  tk.gctx <- Guard.empty_ctx;
  tk.slice_start_io <- io_now_ms ();
  Fun.protect
    ~finally:(fun () ->
      current := saved;
      Guard.restore_ctx host_ctx;
      sync t)
    (fun () ->
      match tk.status with
      | Ready body -> Effect.Deep.match_with body () (handler t tk)
      | Suspended k ->
          tk.status <- Finished;
          (* resumes under the original handler *)
          Effect.Deep.continue k ()
      | Finished -> ())

(* ---------- the run loop ---------- *)

let runnable t tk =
  match tk.status with
  | Finished -> false
  | Ready _ | Suspended _ -> (
      match tk.wake_at with None -> true | Some w -> w <= now t)

let prune t =
  if List.exists (fun tk -> tk.status = Finished) t.tasks then
    t.tasks <- List.filter (fun tk -> tk.status <> Finished) t.tasks

let pick t =
  prune t;
  let candidates = List.filter (runnable t) t.tasks in
  match candidates with
  | [] -> None
  | _ -> (
      match t.chooser with
      | Some choose ->
          let id =
            choose ~now:(now t)
              (List.sort compare (List.map (fun tk -> tk.id) candidates))
          in
          Some
            (match List.find_opt (fun tk -> tk.id = id) candidates with
            | Some tk -> tk
            | None -> List.hd candidates)
      | None ->
          (* deterministic: the smallest (priority class, last-run
             seqno, id) wins — round-robin within a class, urgent
             class first *)
          let key tk = (tk.prio (), tk.last_run, tk.id) in
          Some
            (List.fold_left
               (fun best tk -> if key tk < key best then tk else best)
               (List.hd candidates) (List.tl candidates)))

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
    t.st <- { t.st with idle_jumped_ms = t.st.idle_jumped_ms +. (target -. n) };
    t.vclock <- target;
    t.io_mark <- io_now_ms ()
  end

let advance_to t target =
  let rec drive () =
    if now t >= target then ()
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
