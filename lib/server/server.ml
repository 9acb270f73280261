module Guard = Nra_guard.Guard

type config = {
  admission : Admission.config;
  cache_capacity : int;
  session_wall_ms : float option;
  session_sim_io_ms : float option;
  session_rows : int option;
  strategy : Nra.strategy;
  quantum_ms : float;
  urgent_ms : float;
  domains : int option;
}

let default_config =
  {
    admission = Admission.default_config;
    cache_capacity = 128;
    session_wall_ms = None;
    session_sim_io_ms = None;
    session_rows = None;
    strategy = Nra.Auto;
    quantum_ms = Scheduler.default_quantum_ms;
    urgent_ms = 5.0;
    domains = None;
  }

type outcome = {
  session_id : int;
  sql : string;
  submitted_at : float;
  started_at : float option;
  finished_at : float;
  result : (Nra.exec_result, Nra.Exec_error.t) result;
}

let latency_ms o = o.finished_at -. o.submitted_at

(* What a queued statement needs to run later. *)
type pending = {
  pd_session : Session.t;
  pd_sql : string;
  pd_guard : Guard.budget option;
  pd_submitted : float;
}

type t = {
  cat : Nra.Catalog.t;
  cfg : config;
  pc : Plan_cache.t;
  adm : pending Admission.t;
  sched : Scheduler.t;
  (* (statement id, outcome); newest first, reversed by [drain];
     id 0 marks outcomes of statements that never got a task *)
  mutable completed : (int * outcome) list;
  (* Table-level locks over statement footprints (Nra.footprint):
     shared read locks counted per table, exclusive write locks, and a
     global count for All_tables statements.  Granted all-at-once (so
     no incremental acquisition → no deadlock); a blocked statement
     virtual-sleeps and retries, which lets DML on disjoint tables
     interleave under the scheduler where the old with_no_yield
     serialized every non-query. *)
  mutable read_locks : (string * int) list;
  mutable write_locks : string list;
  mutable global_locks : int;
}

let create ?(config = default_config) cat =
  (* a WAL left torn by a crash is repaired before the first statement
     is admitted, so every session starts from a consistent catalog *)
  (match Nra.Wal.recover_if_needed cat with
  | Some s ->
      Printf.eprintf
        "server: recovered unfinished statement(s) from WAL (%d redone, \
         %d undone)\n%!"
        s.Nra.Wal.redone s.Nra.Wal.undone
  | None -> ());
  (* The scheduler owns the Domain pool: statements time-slice on one
     domain, and a statement's parallel region runs to the barrier
     within its slice (a no-yield critical section), so one pool serves
     all sessions without interleaving hazards. *)
  Option.iter
    (fun domains -> Nra.configure { (Nra.config ()) with domains })
    config.domains;
  {
    cat;
    cfg = config;
    (* the installed engine config, snapshot: a later [Nra.configure]
       changes no plan this server prepares *)
    pc =
      Plan_cache.create ~capacity:config.cache_capacity
        ~config:(Nra.config ()) cat;
    adm = Admission.create config.admission;
    sched = Scheduler.create ~quantum_ms:config.quantum_ms ();
    completed = [];
    read_locks = [];
    write_locks = [];
    global_locks = 0;
  }

let cache t = t.pc
let scheduler t = t.sched
let now t = Scheduler.now t.sched
let admission_stats t = Admission.stats t.adm

let session t ?label ?wall_ms ?sim_io_ms ?rows () =
  let pick o dflt = match o with Some _ -> o | None -> dflt in
  Session.create ?label
    ?wall_ms:(pick wall_ms t.cfg.session_wall_ms)
    ?sim_io_ms:(pick sim_io_ms t.cfg.session_sim_io_ms)
    ?rows:(pick rows t.cfg.session_rows)
    ()

let complete t id o = t.completed <- (id, o) :: t.completed

let timeout_outcome (w : pending Admission.waiter) =
  {
    session_id = Session.id w.payload.pd_session;
    sql = w.payload.pd_sql;
    submitted_at = w.payload.pd_submitted;
    started_at = None;
    finished_at = w.at;
    result =
      Error (Nra.Exec_error.Queue_timeout { waited_ms = w.at -. w.enqueued_at });
  }

(* ---------- table-level locking ---------- *)

let lock_wait_ms = 0.05

let read_count t name =
  match List.assoc_opt name t.read_locks with Some n -> n | None -> 0

let conflicts t (fp : Nra.footprint) =
  match fp with
  | Nra.All_tables ->
      t.global_locks > 0 || t.read_locks <> [] || t.write_locks <> []
  | Nra.Tables { read; write } ->
      t.global_locks > 0
      || List.exists (fun n -> List.mem n t.write_locks) (read @ write)
      || List.exists (fun n -> read_count t n > 0) write

let grant t = function
  | Nra.All_tables -> t.global_locks <- t.global_locks + 1
  | Nra.Tables { read; write } ->
      List.iter
        (fun n -> t.read_locks <- (n, read_count t n + 1)
                  :: List.remove_assoc n t.read_locks)
        read;
      t.write_locks <- write @ t.write_locks

let release t = function
  | Nra.All_tables -> t.global_locks <- t.global_locks - 1
  | Nra.Tables { read; write } ->
      List.iter
        (fun n ->
          let c = read_count t n - 1 in
          t.read_locks <-
            (if c <= 0 then List.remove_assoc n t.read_locks
             else (n, c) :: List.remove_assoc n t.read_locks))
        read;
      List.iter
        (fun n ->
          let rec drop_one = function
            | [] -> []
            | x :: rest -> if x = n then rest else x :: drop_one rest
          in
          t.write_locks <- drop_one t.write_locks)
        write

(* All-at-once acquisition: spin (on the virtual clock) until the whole
   footprint is grantable, then grant it atomically within the slice.
   Two same-table writers therefore serialize, while writers on
   disjoint tables — and any readers not touching a written table —
   interleave freely. *)
let acquire t fp =
  while conflicts t fp do
    Scheduler.sleep_for lock_wait_ms
  done;
  grant t fp

(* Budget-aware priority: a statement whose session is nearly out of
   simulated-I/O allowance runs ahead of bulk work, so it can finish
   (or be killed by the guard) instead of queueing behind statements
   with time to spare.  Re-read by the scheduler at every pick
   comparison, so it allocates nothing. *)
let priority t p () =
  if Session.urgent p.pd_session ~within:t.cfg.urgent_ms then 0 else 1

(* Spawn one admitted statement as a scheduler task whose slot starts
   at [start].  The task interleaves with every other in-flight
   statement at the guard checkpoints; when it finishes it frees its
   admission slot, which may expire stale waiters and promote (spawn)
   the head waiter.  The outcome is tagged with the task id so a serial
   caller ({!exec}) can claim exactly its own. *)
let rec spawn_stmt t p ~start =
  let id = ref 0 in
  id :=
    Scheduler.spawn t.sched ~prio:(priority t p)
      (fun () ->
        let guard =
          let base = Session.remaining p.pd_session in
          match p.pd_guard with
          | None -> base
          (* override first: its cancel token (the REPL's SIGINT token)
             governs the statement; limits are element-wise min either
             way *)
          | Some g -> Guard.min_budget g base
        in
        let result, spend =
          match
            Plan_cache.find_or_prepare t.pc ~strategy:t.cfg.strategy p.pd_sql
          with
          | Error _ as e ->
              (e, { Guard.wall_ms = 0.0; sim_io_ms = 0.0; rows = 0 })
          | Ok prep ->
              let run () = Nra.run_prepared ~guard t.cat prep in
              (* Table-level locking over the statement's footprint:
                 writers exclude readers and writers of the same table
                 but interleave with everything disjoint.  DML
                 atomicity holds because each mutation validates and
                 commits within a slice (the WAL brackets it), and the
                 write lock keeps a second same-table statement from
                 observing the window between a DML's read and its
                 commit point.  [All_tables] (catalog-wide ANALYZE)
                 keeps the old whole-statement critical section. *)
              let fp = Nra.prepared_footprint prep in
              acquire t fp;
              let r =
                Fun.protect
                  ~finally:(fun () -> release t fp)
                  (fun () ->
                    match fp with
                    | Nra.All_tables -> Guard.with_no_yield run
                    | Nra.Tables _ -> run ())
              in
              (r, Guard.last_spend ())
        in
        Session.charge p.pd_session spend;
        let done_at = Scheduler.now t.sched in
        complete t !id
          {
            session_id = Session.id p.pd_session;
            sql = p.pd_sql;
            submitted_at = p.pd_submitted;
            started_at = Some start;
            finished_at = done_at;
            result;
          };
        let expired, promoted = Admission.release t.adm ~now:done_at in
        List.iter (fun w -> complete t 0 (timeout_outcome w)) expired;
        match promoted with
        | Some (w : pending Admission.waiter) ->
            ignore (spawn_stmt t w.payload ~start:w.at)
        | None -> ());
  !id

let rejected session sql ~arrived ~at msg =
  {
    session_id = Session.id session;
    sql;
    submitted_at = arrived;
    started_at = None;
    finished_at = at;
    result = Error (Nra.Exec_error.Rejected msg);
  }

let submit t ?at ?guard session sql =
  (* the statement arrived when the caller says it did, even if the
     clock has already been driven past that instant by an in-flight
     slice — scheduling uses the clamped time, but latency is measured
     from the arrival, so time spent behind a long statement is not
     silently erased (the open-loop / coordinated-omission rule) *)
  let arrived =
    match at with None -> Scheduler.now t.sched | Some a -> a
  in
  let at = Float.max arrived (Scheduler.now t.sched) in
  (* bring the in-flight statements up to the arrival: slices run (and
     complete, freeing slots and promoting waiters) until the virtual
     clock reaches [at] *)
  Scheduler.advance_to t.sched at;
  List.iter
    (fun w -> complete t 0 (timeout_outcome w))
    (Admission.expire t.adm ~now:at);
  if Session.closed session then
    `Done (rejected session sql ~arrived ~at "session closed")
  else
    let p =
      { pd_session = session; pd_sql = sql; pd_guard = guard;
        pd_submitted = arrived }
    in
    match Admission.submit t.adm ~now:at p with
    | `Admitted -> `Running (spawn_stmt t p ~start:at)
    | `Queued -> `Queued
    | `Rejected_full ->
        `Done (rejected session sql ~arrived ~at "admission queue full")

let drain t =
  let l = List.rev_map snd t.completed in
  t.completed <- [];
  l

let finish t =
  Scheduler.run_until_idle t.sched;
  (* nothing left in flight: anything still queued can only time out *)
  List.iter
    (fun w -> complete t 0 (timeout_outcome w))
    (Admission.expire t.adm ~now:infinity);
  drain t

let exec t ?guard session sql =
  (* the serial client issues its next statement after everything
     before it has completed *)
  Scheduler.run_until_idle t.sched;
  match submit t ?guard session sql with
  | `Done o -> o.result
  | `Running id -> (
      Scheduler.run_until_idle t.sched;
      (* claim this statement's outcome, leaving any concurrent
         completions for [drain] *)
      let mine, rest =
        List.partition (fun (i, _) -> i = id) t.completed
      in
      t.completed <- rest;
      match mine with
      | [ (_, o) ] -> o.result
      | _ -> assert false)
  | `Queued ->
      (* a free slot was just ensured, so admission cannot queue us *)
      assert false

let close_session t s =
  let flushed =
    Admission.cancel t.adm (fun p -> Session.id p.pd_session = Session.id s)
  in
  List.iter
    (fun p ->
      complete t 0
        {
          session_id = Session.id p.pd_session;
          sql = p.pd_sql;
          submitted_at = p.pd_submitted;
          started_at = None;
          finished_at = Scheduler.now t.sched;
          result = Error Nra.Exec_error.Cancelled;
        })
    flushed;
  Session.close s

let report t s =
  Format.asprintf "@[<v>%a@,%a@,%a@,%a@]" Session.pp s Admission.pp_stats
    (Admission.stats t.adm) Plan_cache.pp_stats (Plan_cache.stats t.pc)
    Scheduler.pp_stats (Scheduler.stats t.sched)
