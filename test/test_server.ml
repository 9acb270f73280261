(* The serving layer (ISSUE: sessions, admission control, plan cache):
   admission cap and bounded queue under burst, structured queue
   timeouts, session aggregate budgets killing the Nth statement,
   session close flushing queued work, generation-checked plan-cache
   invalidation on DML and ANALYZE, and a guard unwind (alloc-pressure
   fault) leaving session and cache consistent. *)

open Nra

(* these tests pin exact simulated-I/O budgets (queue timeouts, the
   statement a session budget kills), so a CI-wide NRA_BUFFER_PAGES
   run must not add buffer-pool charges on top; the alloc-pressure
   case additionally relies on the unrewritten plan staging an
   intermediate, so a CI-wide NRA_REWRITE run is pinned off too *)
let () = Nra.configure { (Nra.config ()) with frames = Off; rules = [] }

module Server = Nra_server.Server
module Admission = Nra_server.Admission
module Plan_cache = Nra_server.Plan_cache
module Session = Nra_server.Session

let nested_sql =
  "select ename from emp where dept_id in (select dept_id from dept \
   where budget > 40)"

let server ?(config = Server.default_config) () =
  Server.create ~config (Test_support.emp_dept_catalog ())

let admission_config ?(queue_timeout_ms = Some 1e9) ~max_concurrent ~queue_len
    () =
  {
    Server.default_config with
    Server.admission =
      { Admission.max_concurrent; queue_len; queue_timeout_ms };
  }

let ok_rows = function
  | Ok (Nra.Rows rel) -> Relation.cardinality rel
  | Ok _ -> Alcotest.fail "expected rows"
  | Error e -> Alcotest.fail (Exec_error.to_string e)

(* ---------- admission under burst ---------- *)

let test_burst_cap () =
  let srv =
    server ~config:(admission_config ~max_concurrent:2 ~queue_len:3 ()) ()
  in
  let s = Server.session srv () in
  (* seven statements arriving at the same instant: 2 slots, 3 queue
     places, 2 turned away *)
  let results =
    List.init 7 (fun _ -> Server.submit srv ~at:0.0 s nested_sql)
  in
  let count p = List.length (List.filter p results) in
  Alcotest.(check int) "admitted as running tasks" 2
    (count (function `Running _ -> true | _ -> false));
  Alcotest.(check int) "queued" 3
    (count (function `Queued -> true | _ -> false));
  Alcotest.(check int) "rejected" 2
    (count (function
      | `Done { Server.result = Error (Exec_error.Rejected m); _ } ->
          Alcotest.(check string) "reason" "admission queue full" m;
          true
      | _ -> false));
  (* driving the scheduler runs the two admitted statements interleaved
     and every queued statement on promotion, all to the same result *)
  let late = Server.finish srv in
  Alcotest.(check int) "admitted and queued all completed" 5
    (List.length late);
  List.iter
    (fun o ->
      Alcotest.(check int) "same rows" 4 (ok_rows o.Server.result);
      match o.Server.started_at with
      | Some _ -> ()
      | None -> Alcotest.fail "completed statement never started")
    late;
  Alcotest.(check int) "promoted statements started after the burst" 3
    (List.length
       (List.filter
          (fun o ->
            match o.Server.started_at with
            | Some st -> st > 0.0
            | None -> false)
          late));
  let a = Server.admission_stats srv in
  Alcotest.(check int) "admitted total" 5 a.Admission.admitted;
  Alcotest.(check int) "peak running" 2 a.Admission.peak_running;
  Alcotest.(check int) "peak queue" 3 a.Admission.peak_queue;
  Alcotest.(check int) "rejected_full" 2 a.Admission.rejected_full;
  Alcotest.(check int) "statements charged" 5 (Session.statements s)

let test_queue_timeout () =
  let timeout = 0.001 in
  let srv =
    server
      ~config:
        (admission_config ~max_concurrent:1 ~queue_len:4
           ~queue_timeout_ms:(Some timeout) ())
      ()
  in
  let s = Server.session srv () in
  (match Server.submit srv ~at:0.0 s nested_sql with
  | `Running _ -> ()
  | _ -> Alcotest.fail "first statement should be admitted");
  (match Server.submit srv ~at:0.0 s nested_sql with
  | `Queued -> ()
  | _ -> Alcotest.fail "second statement should queue");
  match Server.finish srv with
  | [ first; o ] -> (
      (match first.Server.result with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Exec_error.to_string e));
      match o.Server.result with
      | Error (Exec_error.Queue_timeout { waited_ms }) ->
          Alcotest.(check (float 1e-9)) "waited the timeout" timeout waited_ms;
          Alcotest.(check (option (float 0.0))) "never started" None
            o.Server.started_at;
          Alcotest.(check bool) "rendered" true
            (String.length
               (Exec_error.to_string
                  (Exec_error.Queue_timeout { waited_ms }))
            > 0);
          Alcotest.(check int) "timed out counted" 1
            (Server.admission_stats srv).Admission.timed_out
      | Error e -> Alcotest.fail (Exec_error.to_string e)
      | Ok _ -> Alcotest.fail "expected a queue timeout")
  | os -> Alcotest.fail (Printf.sprintf "expected 2 outcomes, got %d"
                           (List.length os))

let test_close_flushes_queue () =
  let srv =
    server ~config:(admission_config ~max_concurrent:1 ~queue_len:4 ()) ()
  in
  let a = Server.session srv ~label:"a" () in
  let b = Server.session srv ~label:"b" () in
  (match Server.submit srv ~at:0.0 a nested_sql with
  | `Running _ -> ()
  | _ -> Alcotest.fail "a's statement should be admitted");
  List.iter
    (fun _ ->
      match Server.submit srv ~at:0.0 b nested_sql with
      | `Queued -> ()
      | _ -> Alcotest.fail "b's statements should queue")
    [ (); () ];
  Server.close_session srv b;
  let flushed = Server.drain srv in
  Alcotest.(check int) "both flushed" 2 (List.length flushed);
  List.iter
    (fun o ->
      Alcotest.(check int) "b's outcome" (Session.id b) o.Server.session_id;
      match o.Server.result with
      | Error Exec_error.Cancelled -> ()
      | _ -> Alcotest.fail "expected cancellation")
    flushed;
  (* the closed session is rejected up front *)
  (match Server.submit srv b nested_sql with
  | `Done { Server.result = Error (Exec_error.Rejected m); _ } ->
      Alcotest.(check string) "reason" "session closed" m
  | _ -> Alcotest.fail "closed session must be rejected");
  Alcotest.(check bool) "b closed" true (Session.closed b);
  Alcotest.(check int) "cancelled counted" 2
    (Server.admission_stats srv).Admission.cancelled;
  (* a's in-flight statement still runs to completion... *)
  (match Server.finish srv with
  | [ o ] ->
      Alcotest.(check int) "a's statement completed" 4
        (ok_rows o.Server.result)
  | os ->
      Alcotest.fail
        (Printf.sprintf "expected a's outcome only, got %d" (List.length os)));
  (* ...and nothing of b's ever ran *)
  Alcotest.(check int) "b never charged" 0 (Session.statements b);
  Alcotest.(check int) "a charged once" 1 (Session.statements a)

(* ---------- session aggregate budgets ---------- *)

let test_session_budget_kills_nth () =
  (* measure one statement's simulated-I/O spend on an unlimited
     session, then allow 1.5x that: statement 1 fits, statement 2 must
     die mid-flight on the session's aggregate allowance *)
  let probe = server () in
  let sp = Server.session probe () in
  ignore (ok_rows (Server.exec probe sp nested_sql));
  let per_stmt = (Session.spent sp).Guard.sim_io_ms in
  Alcotest.(check bool) "probe spent io" true (per_stmt > 0.0);
  let srv = server () in
  let s = Server.session srv ~sim_io_ms:(per_stmt *. 1.5) () in
  Alcotest.(check int) "first fits" 4 (ok_rows (Server.exec srv s nested_sql));
  (match Server.exec srv s nested_sql with
  | Error (Exec_error.Budget_exceeded Guard.Sim_io) -> ()
  | Error e -> Alcotest.fail (Exec_error.to_string e)
  | Ok _ -> Alcotest.fail "second statement must exceed the session budget");
  Alcotest.(check int) "both charged" 2 (Session.statements s);
  (* the kill is cooperative and early: the killed statement cannot have
     spent more than the whole session allowance *)
  Alcotest.(check bool) "spend bounded" true
    ((Session.spent s).Guard.sim_io_ms <= per_stmt *. 1.5 +. 1e-9)

let test_statement_override_only_tightens () =
  let srv = server () in
  let s = Server.session srv () in
  (match
     Server.exec srv ~guard:(Guard.budget ~sim_io_ms:1e-9 ()) s nested_sql
   with
  | Error (Exec_error.Budget_exceeded Guard.Sim_io) -> ()
  | Error e -> Alcotest.fail (Exec_error.to_string e)
  | Ok _ -> Alcotest.fail "tight override must kill the statement");
  (* the session itself is unlimited, so the next statement is fine *)
  Alcotest.(check int) "session survives" 4
    (ok_rows (Server.exec srv s nested_sql))

(* ---------- the plan cache ---------- *)

let cache_stats srv = Plan_cache.stats (Server.cache srv)

let test_cache_hit_on_normalized_repeat () =
  let srv = server () in
  let s = Server.session srv () in
  ignore (ok_rows (Server.exec srv s nested_sql));
  ignore
    (ok_rows
       (Server.exec srv s
          "SELECT ename   FROM emp WHERE dept_id IN (select dept_id \
           from dept\n  where budget > 40)"));
  let c = cache_stats srv in
  Alcotest.(check int) "one miss" 1 c.Plan_cache.misses;
  Alcotest.(check int) "one hit" 1 c.Plan_cache.hits;
  (* quoted literals keep their case: different constants, different
     plans *)
  ignore (ok_rows (Server.exec srv s "select * from emp where ename = 'ada'"));
  ignore
    (ok_rows (Server.exec srv s "select * from emp where ename = 'ADA'"));
  let c = cache_stats srv in
  Alcotest.(check int) "literal case is significant" 3 c.Plan_cache.misses;
  Alcotest.(check int) "entries" 3 c.Plan_cache.entries

let test_cache_strategy_keyed () =
  let srv = server () in
  let s = Server.session srv () in
  ignore (ok_rows (Server.exec srv s nested_sql));
  ignore (ok_rows (Server.exec srv s nested_sql));
  (* same text prepared for a different strategy is a different plan *)
  (match
     Plan_cache.find_or_prepare (Server.cache srv) ~strategy:Nra.Naive
       nested_sql
   with
  | Ok p ->
      Alcotest.(check bool) "prepared for naive" true
        (Nra.prepared_strategy p = Nra.Naive)
  | Error e -> Alcotest.fail (Exec_error.to_string e));
  let c = cache_stats srv in
  Alcotest.(check int) "strategy in the key" 2 c.Plan_cache.misses;
  Alcotest.(check int) "hit only on same strategy" 1 c.Plan_cache.hits

let test_cache_invalidation_on_dml_and_analyze () =
  let srv = server () in
  let s = Server.session srv () in
  Alcotest.(check int) "cold" 4 (ok_rows (Server.exec srv s nested_sql));
  Alcotest.(check int) "warm" 4 (ok_rows (Server.exec srv s nested_sql));
  let c = cache_stats srv in
  Alcotest.(check int) "warm hit" 1 c.Plan_cache.hits;
  (* DML bumps the catalog generation: the cached plan must not survive *)
  (match
     Server.exec srv s "insert into emp values (7, 'gil', 1, 55, null)"
   with
  | Ok (Nra.Count 1) -> ()
  | Ok _ -> Alcotest.fail "expected one inserted row"
  | Error e -> Alcotest.fail (Exec_error.to_string e));
  Alcotest.(check int) "sees the insert" 5
    (ok_rows (Server.exec srv s nested_sql));
  let c = cache_stats srv in
  Alcotest.(check int) "invalidated by DML" 1 c.Plan_cache.invalidations;
  (* re-warmed... *)
  Alcotest.(check int) "re-warmed" 5 (ok_rows (Server.exec srv s nested_sql));
  Alcotest.(check int) "re-warmed hit" 2 (cache_stats srv).Plan_cache.hits;
  (* ...until ANALYZE bumps the catalog generation too *)
  (match Server.exec srv s "analyze" with
  | Ok (Nra.Done _) -> ()
  | _ -> Alcotest.fail "analyze failed");
  Alcotest.(check int) "after analyze" 5
    (ok_rows (Server.exec srv s nested_sql));
  Alcotest.(check int) "invalidated by ANALYZE" 2
    (cache_stats srv).Plan_cache.invalidations;
  (* DML and ANALYZE themselves were never cached *)
  Alcotest.(check int) "only the query is cached" 1
    (cache_stats srv).Plan_cache.entries

(* a WITH is a read: it bumps no generation, so the cached plan of a
   query run before it still serves the run after it *)
let test_cache_survives_with () =
  let srv = server () in
  let s = Server.session srv () in
  Alcotest.(check int) "cold" 4 (ok_rows (Server.exec srv s nested_sql));
  Alcotest.(check int) "the CTE's rows" 2
    (ok_rows
       (Server.exec srv s
          "with dept as (select emp_id from emp where salary >= 80) select \
           * from dept"));
  Alcotest.(check int) "warm" 4 (ok_rows (Server.exec srv s nested_sql));
  let c = cache_stats srv in
  Alcotest.(check int) "the second run hits" 1 c.Plan_cache.hits;
  Alcotest.(check int) "nothing invalidated" 0 c.Plan_cache.invalidations

let test_cache_ja_shape_keyed_and_replanned () =
  let srv = server () in
  let s = Server.session srv () in
  (* a type-JA statement and its non-aggregate lookalike: normalization
     collapses whitespace and case, but must keep their slots apart *)
  let ja =
    "select ename from emp where salary in (select max(budget) from dept \
     where dept.dept_id = emp.dept_id)"
  in
  let lookalike =
    "select ename from emp where salary in (select budget from dept where \
     dept.dept_id = emp.dept_id)"
  in
  Alcotest.(check bool) "keys differ" true
    (Plan_cache.normalize ja <> Plan_cache.normalize lookalike);
  (* no current salary equals its department's max budget, and the
     NULL-budget / NULL-dept groups are Unknown *)
  Alcotest.(check int) "JA cold" 0 (ok_rows (Server.exec srv s ja));
  Alcotest.(check int) "JA warm" 0 (ok_rows (Server.exec srv s ja));
  ignore (ok_rows (Server.exec srv s lookalike));
  let c = cache_stats srv in
  Alcotest.(check int) "two slots, two misses" 2 c.Plan_cache.misses;
  Alcotest.(check int) "hit only on the same shape" 1 c.Plan_cache.hits;
  Alcotest.(check int) "both cached" 2 c.Plan_cache.entries;
  (* DML bumps the generation: the cached JA plan is invalidated, and
     the re-planned run must see the new row (gil earns exactly the max
     budget of dept 1) *)
  (match
     Server.exec srv s "insert into emp values (7, 'gil', 1, 100, null)"
   with
  | Ok (Nra.Count 1) -> ()
  | Ok _ -> Alcotest.fail "expected one inserted row"
  | Error e -> Alcotest.fail (Exec_error.to_string e));
  Alcotest.(check int) "re-planned JA sees the insert" 1
    (ok_rows (Server.exec srv s ja));
  Alcotest.(check int) "invalidated by DML" 1
    (cache_stats srv).Plan_cache.invalidations

let test_cache_lru_eviction () =
  let cat = Test_support.emp_dept_catalog () in
  let pc = Plan_cache.create ~capacity:2 ~config:(Nra.config ()) cat in
  let get sql =
    match Plan_cache.find_or_prepare pc ~strategy:Nra.Nra_optimized sql with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Exec_error.to_string e)
  in
  get "select * from emp";
  get "select * from dept";
  get "select * from emp";  (* refresh emp: dept becomes the LRU victim *)
  get "select * from project";
  let c = Plan_cache.stats pc in
  Alcotest.(check int) "capacity held" 2 c.Plan_cache.entries;
  Alcotest.(check int) "one eviction" 1 c.Plan_cache.evictions;
  get "select * from emp";
  Alcotest.(check int) "emp survived as recently used" 2
    (Plan_cache.stats pc).Plan_cache.hits

(* ---------- a stale entry keeps its parse ---------- *)

(* The counters over a scripted sequence of reads, writes, DDL, a parse
   error, an analysis error and LRU pressure, pinned as the cache
   counted them when a stale entry was discarded whole: keeping its
   parse moves no hit, miss, invalidation or eviction.  Each line is
   (hits, misses, invalidations, evictions, entries) after the
   statement. *)
let cache_script =
  let q1 =
    "select ename from emp where dept_id in (select dept_id from dept \
     where budget > 40)"
  and q2 = "select * from emp where ename = 'ada'"
  and q3 =
    "select dname from dept where exists (select * from emp where \
     emp.dept_id = dept.dept_id)"
  and q4 =
    "select dname from dept where not exists (select * from emp where \
     emp.dept_id = dept.dept_id)"
  and t2 col =
    Printf.sprintf "select %s from t2 where a in (select dept_id from dept)"
      col
  in
  [
    (q1, (0, 1, 0, 0, 1));
    ("SELECT ename FROM emp WHERE dept_id IN (select dept_id from dept \
      where budget > 40);", (1, 1, 0, 0, 1));
    (q2, (1, 2, 0, 0, 2));
    ("insert into emp values (7, 'gil', 1, 55, null)", (1, 3, 0, 0, 2));
    (q1, (1, 4, 1, 0, 2));
    (q2, (1, 5, 2, 0, 2));
    (q2, (2, 5, 2, 0, 2));
    ("selec ename from emp", (2, 6, 2, 0, 2));
    ("select nosuch from emp", (2, 7, 2, 0, 2));
    (q3, (2, 8, 2, 0, 3));
    (q4, (2, 9, 2, 1, 3));
    ("analyze", (2, 10, 2, 1, 3));
    (q1, (2, 11, 2, 2, 3));
    (q4, (2, 12, 3, 2, 3));
    ("create table t2 (a int, b int, primary key (a))", (2, 13, 3, 2, 3));
    ("insert into t2 values (1, 10), (2, 20)", (2, 14, 3, 2, 3));
    (t2 "b", (2, 15, 3, 3, 3));
    (t2 "b", (3, 15, 3, 3, 3));
    ("drop table t2", (3, 16, 3, 3, 3));
    (t2 "b", (3, 17, 4, 3, 2));
    ("create table t2 (a int, c int, primary key (a))", (3, 18, 4, 3, 2));
    (t2 "b", (3, 19, 4, 3, 2));
    (t2 "c", (3, 20, 4, 3, 3));
    ("delete from emp where emp_id = 7", (3, 21, 4, 3, 3));
    (t2 "c", (3, 22, 5, 3, 3));
    (t2 "c", (4, 22, 5, 3, 3));
    ("drop table t2", (4, 23, 5, 3, 3));
    ("create table t2 (a int, d int, primary key (a))", (4, 24, 5, 3, 3));
    (t2 "c", (4, 25, 6, 3, 2));
    (t2 "d", (4, 26, 6, 3, 3));
  ]

let test_cache_script_counts () =
  List.iter
    (fun strategy ->
      let config =
        { Server.default_config with Server.cache_capacity = 3; strategy }
      in
      let srv = server ~config () in
      let s = Server.session srv () in
      List.iteri
        (fun i (sql, expected) ->
          ignore (Server.exec srv s sql);
          let c = cache_stats srv in
          let got =
            Plan_cache.
              (c.hits, c.misses, c.invalidations, c.evictions, c.entries)
          in
          Alcotest.(check (pair int (pair int (pair int (pair int int)))))
            (Printf.sprintf "%s, step %d: %s" (Nra.strategy_to_string strategy)
               i sql)
            (let h, m, inv, ev, en = expected in (h, (m, (inv, (ev, en)))))
            (let h, m, inv, ev, en = got in (h, (m, (inv, (ev, en))))))
        cache_script)
    [ Nra.Auto; Nra.Nra_optimized ]

(* After a write, an Auto entry re-prepared from its kept parse returns
   the rows and the rewrite-adjusted estimates a cold preparation
   gives. *)
let test_cache_reprepare_matches_cold () =
  Test_support.with_config (fun c -> { c with rules = Nra.Opt.Config.all })
  @@ fun () ->
  let cat = Test_support.emp_dept_catalog () in
  ignore (Nra.run cat "analyze");
  let pc = Plan_cache.create ~config:(Nra.config ()) cat in
  let get sql =
    match Plan_cache.find_or_prepare pc ~strategy:Nra.Auto sql with
    | Ok p -> p
    | Error e -> Alcotest.fail (Exec_error.to_string e)
  in
  let rows p =
    match Nra.run_prepared cat p with
    | Ok (Nra.Rows rel) -> Test_support.rows_of rel
    | Ok _ -> Alcotest.fail "expected rows"
    | Error e -> Alcotest.fail (Exec_error.to_string e)
  in
  let reads =
    List.filter
      (fun sql ->
        match Nra.Sql.Parser.parse_command sql with
        | Nra.Sql.Ast.Cmd_query (Nra.Sql.Ast.Select _) -> true
        | _ -> false)
      Test_support.subquery_corpus
  in
  List.iter (fun sql -> ignore (get sql)) reads;
  (match Nra.run cat "insert into emp values (7, 'gil', 1, 55, null)" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Exec_error.to_string e));
  let before = Plan_cache.stats pc in
  List.iter
    (fun sql ->
      let kept = get sql in
      let cold =
        match Nra.prepare ~strategy:Nra.Auto cat sql with
        | Ok p -> p
        | Error e -> Alcotest.fail (Exec_error.to_string e)
      in
      let t =
        match Nra.Planner.Analyze.analyze_string cat sql with
        | Ok t -> t
        | Error m -> Alcotest.fail m
      in
      Alcotest.(check bool) (sql ^ ": priced") true
        (Nra.prepared_estimates kept <> []);
      Alcotest.(check bool) (sql ^ ": estimates as cold") true
        (Nra.prepared_estimates kept = Nra.prepared_estimates cold);
      Alcotest.(check bool) (sql ^ ": estimates_with_rewrites") true
        (Nra.prepared_estimates kept = Nra.estimates_with_rewrites cat t);
      Alcotest.check Alcotest.(list (array Test_support.value_testable))
        (sql ^ ": rows as cold") (rows cold) (rows kept))
    reads;
  let after = Plan_cache.stats pc in
  let n = List.length reads in
  Alcotest.(check int) "every read invalidated once" n
    (after.Plan_cache.invalidations - before.Plan_cache.invalidations);
  Alcotest.(check int) "and missed once" n
    (after.Plan_cache.misses - before.Plan_cache.misses)

(* A server runs under the engine config installed when it was
   created.  Two servers over one catalog, created under rules none and
   all, each price and charge what the engine does under their own
   rules, and installing other rules afterwards changes neither. *)
let test_servers_keep_their_config () =
  let cat = Test_support.emp_dept_catalog () in
  ignore (Nra.run cat "analyze");
  let under rules = Test_support.with_config (fun c -> { c with rules }) in
  let auto = { Server.default_config with Server.strategy = Nra.Auto } in
  let create rules = under rules (fun () -> Server.create ~config:auto cat) in
  let servers =
    [ ([], create []); (Nra.Opt.Config.all, create Nra.Opt.Config.all) ]
  in
  let rows = function
    | Ok (Nra.Rows rel) -> Test_support.rows_of rel
    | Ok _ -> Alcotest.fail "expected rows"
    | Error e -> Alcotest.fail (Exec_error.to_string e)
  in
  let charged f =
    Nra.Iosim.reset ();
    let r = f () in
    (r, Nra.Iosim.counters ())
  in
  (* what the engine prices and charges under [rules] *)
  let engine rules sql =
    under rules @@ fun () ->
    let t =
      match Nra.Planner.Analyze.analyze_string cat sql with
      | Ok t -> t
      | Error m -> Alcotest.fail m
    in
    ( Nra.estimates_with_rewrites cat t,
      charged (fun () -> rows (Nra.run ~strategy:Nra.Auto cat sql)) )
  in
  let served srv sql =
    match
      Plan_cache.find_or_prepare (Server.cache srv) ~strategy:Nra.Auto sql
    with
    | Error e -> Alcotest.fail (Exec_error.to_string e)
    | Ok p ->
        let s = Server.session srv () in
        ( Nra.prepared_estimates p,
          charged (fun () -> rows (Server.exec srv s sql)) )
  in
  let reads =
    List.filter
      (fun sql ->
        match Nra.Sql.Parser.parse_command sql with
        | Nra.Sql.Ast.Cmd_query (Nra.Sql.Ast.Select _) -> true
        | _ -> false)
      Test_support.subquery_corpus
  in
  let expected =
    List.map (fun (rules, _) -> List.map (engine rules) reads) servers
  in
  Alcotest.(check bool) "the rules change some estimate" true
    (List.nth expected 0 <> List.nth expected 1);
  List.iter
    (fun later ->
      Nra.set_rewrite_rules later;
      List.iter2
        (fun (rules, srv) expected ->
          List.iter2
            (fun sql e ->
              Alcotest.(check bool)
                (Printf.sprintf "rules %s, later %s: %s"
                   (Nra.Opt.Config.mask rules)
                   (Nra.Opt.Config.mask later)
                   sql)
                true (served srv sql = e))
            reads expected)
        servers expected)
    [ [ Nra.Opt.Config.Semijoin ]; Nra.Opt.Config.all; [] ]

(* A stale entry whose table was dropped, or dropped and re-created
   with other columns, fails as a fresh preparation of its text does,
   and is not kept. *)
let test_cache_reprepare_errors () =
  let cat = Test_support.emp_dept_catalog () in
  let pc = Plan_cache.create ~config:(Nra.config ()) cat in
  let exec sql =
    match Nra.run cat sql with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Exec_error.to_string e)
  in
  let sql = "select b from t2 where a in (select dept_id from dept)" in
  let cached () =
    match Plan_cache.find_or_prepare pc ~strategy:Nra.Auto sql with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Exec_error.to_string e)
  in
  let fails_as_fresh what =
    let fresh =
      match Nra.prepare ~strategy:Nra.Auto cat sql with
      | Ok _ -> Alcotest.fail (what ^ ": a fresh prepare succeeded")
      | Error e -> e
    in
    (match Plan_cache.find_or_prepare pc ~strategy:Nra.Auto sql with
    | Ok _ -> Alcotest.fail (what ^ ": the stale entry prepared")
    | Error e ->
        Alcotest.(check string) what (Exec_error.to_string fresh)
          (Exec_error.to_string e);
        Alcotest.(check bool) (what ^ ": same error") true (e = fresh));
    Alcotest.(check int) (what ^ ": not kept") 0
      (Plan_cache.stats pc).Plan_cache.entries
  in
  exec "create table t2 (a int, b int, primary key (a))";
  cached ();
  exec "drop table t2";
  fails_as_fresh "dropped";
  exec "create table t2 (a int, b int, primary key (a))";
  cached ();
  exec "drop table t2";
  exec "create table t2 (a int, c int, primary key (a))";
  fails_as_fresh "re-created with other columns"

(* A [--] comment runs to the end of its line: the newline ends it, and
   without one it swallows the rest of the statement.  Texts that only
   differ there must not share a cache slot. *)
let test_cache_comment_ends_at_newline () =
  let srv = server () in
  let s = Server.session srv () in
  List.iter
    (fun sql ->
      match Server.exec srv s sql with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Exec_error.to_string e))
    [
      "create table nums (a int, primary key (a))";
      "insert into nums values (1), (2), (3)";
    ];
  Alcotest.(check int) "the newline ends the comment" 1
    (ok_rows (Server.exec srv s "select a from nums -- x\nwhere a = 1"));
  Alcotest.(check int) "the comment swallows the WHERE" 3
    (ok_rows (Server.exec srv s "select a from nums -- x where a = 1"));
  Alcotest.(check int) "two slots" 2 (cache_stats srv).Plan_cache.entries;
  (* a trailing ';' shares the slot of the text without it, and parses
     on a miss too *)
  Alcotest.(check int) "terminated, cold" 3
    (ok_rows (Server.exec srv s "select a from nums where a > 0;"));
  Alcotest.(check int) "unterminated, warm" 3
    (ok_rows (Server.exec srv s "select a from nums where a > 0"));
  Alcotest.(check int) "three slots" 3 (cache_stats srv).Plan_cache.entries

(* Adding or dropping an index changes the access paths Auto priced, so
   it invalidates cached plans; a request that changes nothing does
   not. *)
let test_cache_invalidation_on_index_change () =
  let cat = Test_support.emp_dept_catalog () in
  let srv = Server.create cat in
  let s = Server.session srv () in
  let run () = Alcotest.(check int) "rows" 4 (ok_rows (Server.exec srv s nested_sql)) in
  let expect ~hits ~invalidations =
    let c = cache_stats srv in
    Alcotest.(check int) "hits" hits c.Plan_cache.hits;
    Alcotest.(check int) "invalidations" invalidations
      c.Plan_cache.invalidations
  in
  run ();
  run ();
  expect ~hits:1 ~invalidations:0;
  Catalog.create_hash_index cat ~table:"emp" [ "dept_id" ];
  run ();
  expect ~hits:1 ~invalidations:1;
  Catalog.create_hash_index cat ~table:"emp" [ "dept_id" ];
  run ();
  expect ~hits:2 ~invalidations:1;
  Catalog.create_sorted_index cat ~table:"dept" [ "budget" ];
  run ();
  expect ~hits:2 ~invalidations:2;
  Catalog.drop_indexes cat ~table:"emp";
  run ();
  expect ~hits:2 ~invalidations:3;
  Catalog.drop_indexes cat ~table:"emp";
  run ();
  expect ~hits:3 ~invalidations:3

(* The key's soundness: two texts with equal normalizations lex to
   equal token streams.  Each corpus query is re-spelled at random:
   letters outside literals change case, whitespace runs change, and
   now and then a letter inside a literal changes case (which changes a
   token) or a [--] comment appears at one token gap — ended by a
   newline, by a space (so it swallows the rest of its line), or by
   nothing — or a [;] ends the text, alone or followed by more.  Every
   two spellings that share a key must lex alike. *)
let perturb rng sql =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let flip c =
    if Char.lowercase_ascii c = c then Char.uppercase_ascii c
    else Char.lowercase_ascii c
  in
  let gaps = ref [] and letters_in_lit = ref [] and in_lit = ref false in
  String.iteri
    (fun i c ->
      if c = '\'' then in_lit := not !in_lit
      else if !in_lit && Char.lowercase_ascii c <> Char.uppercase_ascii c then
        letters_in_lit := i :: !letters_in_lit
      else if c = ' ' && not !in_lit then gaps := i :: !gaps)
    sql;
  let chosen l p =
    if l = [] || Random.State.int rng p <> 0 then -1
    else List.nth l (Random.State.int rng (List.length l))
  in
  let comment_at = chosen !gaps 2 and flip_at = chosen !letters_in_lit 4 in
  let b = Buffer.create (2 * String.length sql) in
  String.iteri
    (fun i c ->
      if i = flip_at then Buffer.add_char b (flip c)
      else if List.mem i !gaps then begin
        Buffer.add_string b
          (String.init
             (1 + Random.State.int rng 3)
             (fun _ -> pick [| ' '; '\t'; '\n'; '\r' |]));
        if i = comment_at then
          Buffer.add_string b
            ("--" ^ pick [| " x"; " where a = 1"; "--" |]
            ^ pick [| "\n"; " "; "" |])
      end
      else if Random.State.bool rng && not (List.mem i !letters_in_lit) then
        Buffer.add_char b (flip c)
      else Buffer.add_char b c)
    sql;
  if Random.State.int rng 3 = 0 then
    Buffer.add_string b (pick [| ";"; " ;\n"; "; -- end"; ";;"; "; x" |]);
  Buffer.contents b

let lex sql =
  match Sql.Lexer.tokenize sql with
  | tokens -> Some tokens
  | exception _ -> None

let test_normalize_sound () =
  let rng = Random.State.make [| 26 |] in
  let shared = ref 0 and split = ref 0 in
  List.iter
    (fun sql ->
      let spellings =
        Array.of_list
          (List.map
             (fun s -> (Plan_cache.normalize s, lex s, s))
             (sql :: List.init 40 (fun _ -> perturb rng sql)))
      in
      Array.iteri
        (fun i (ka, ta, a) ->
          for j = i + 1 to Array.length spellings - 1 do
            let kb, tb, b = spellings.(j) in
            if ka = kb then begin
              incr shared;
              if ta <> tb then
                Alcotest.failf "one key, two token streams:\n%S\n%S" a b
            end
            else if ta <> tb then incr split
          done)
        spellings)
    (Test_support.subquery_corpus
    @ [ "select * from emp where ename = 'it''s -- not a comment'" ]);
  (* the property held somewhere, and the spellings did reach texts
     that lex apart *)
  Alcotest.(check bool) "pairs that share a key" true (!shared > 0);
  Alcotest.(check bool) "pairs that lex apart" true (!split > 0)

let test_normalize () =
  Alcotest.(check string) "case and whitespace" "select * from emp"
    (Plan_cache.normalize "  SELECT   *\n FROM\temp ;");
  Alcotest.(check string) "literals preserved"
    "select * from emp where ename = 'Ada  B'"
    (Plan_cache.normalize "SELECT * FROM emp WHERE ename = 'Ada  B'");
  Alcotest.(check string) "escaped quote stays inside the literal"
    "select 'it''s OK' from emp"
    (Plan_cache.normalize "SELECT   'it''s OK'  FROM emp");
  Alcotest.(check string) "comments dropped"
    "select * from emp where a = '--x'"
    (Plan_cache.normalize "SELECT * -- all\nFROM emp--\nWHERE a = '--x' -- end")

(* ---------- fault unwind consistency ---------- *)

let test_alloc_fault_unwind_keeps_state () =
  (* a correlated query pinned to the NRA pipeline: it materializes the
     wide intermediate whose allocation the fault layer pressures *)
  let correlated =
    "select ename from emp where exists (select * from project where \
     owner_dept = emp.dept_id)"
  in
  let srv =
    server
      ~config:{ Server.default_config with Server.strategy = Nra.Nra_optimized }
      ()
  in
  let s = Server.session srv ~rows:1_000_000 () in
  (* the test owns the fault stream from here on, as the [finally]
     below leaves it: injection from the environment would fire
     allocation-pressure faults under the session's finite row budget
     before the pressure is armed *)
  Fault.disable ();
  Alcotest.(check int) "healthy first" 5
    (ok_rows (Server.exec srv s correlated));
  Fault.configure ~alloc_probability:1.0 0.0;
  Fun.protect ~finally:Fault.disable (fun () ->
      match Server.exec srv s correlated with
      | Error (Exec_error.Budget_exceeded Guard.Rows) ->
          Alcotest.(check bool) "alloc fault counted" true
            ((Fault.stats ()).Fault.alloc_injected > 0)
      | Error e -> Alcotest.fail (Exec_error.to_string e)
      | Ok _ -> Alcotest.fail "alloc pressure must kill the statement");
  (* the unwind charged the session and left the cache consistent: the
     same session runs the same (still-cached) plan to completion *)
  Alcotest.(check int) "charged both" 2 (Session.statements s);
  Alcotest.(check int) "recovers" 5 (ok_rows (Server.exec srv s correlated));
  let c = cache_stats srv in
  Alcotest.(check int) "no spurious invalidation" 0
    c.Plan_cache.invalidations;
  Alcotest.(check int) "plan reused across the kill" 2 c.Plan_cache.hits

let () =
  Alcotest.run "server"
    [
      ( "admission",
        [
          Alcotest.test_case "burst: cap, queue, reject" `Quick test_burst_cap;
          Alcotest.test_case "queue timeout is structured" `Quick
            test_queue_timeout;
          Alcotest.test_case "close flushes queued work" `Quick
            test_close_flushes_queue;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "aggregate budget kills Nth statement" `Quick
            test_session_budget_kills_nth;
          Alcotest.test_case "override only tightens" `Quick
            test_statement_override_only_tightens;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "hit on normalized repeat" `Quick
            test_cache_hit_on_normalized_repeat;
          Alcotest.test_case "strategy is in the key" `Quick
            test_cache_strategy_keyed;
          Alcotest.test_case "DML and ANALYZE invalidate" `Quick
            test_cache_invalidation_on_dml_and_analyze;
          Alcotest.test_case "a WITH leaves cached plans valid" `Quick
            test_cache_survives_with;
          Alcotest.test_case "JA shape keyed and re-planned" `Quick
            test_cache_ja_shape_keyed_and_replanned;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "normalization" `Quick test_normalize;
          Alcotest.test_case "comment ends at the newline" `Quick
            test_cache_comment_ends_at_newline;
          Alcotest.test_case "index changes invalidate" `Quick
            test_cache_invalidation_on_index_change;
          Alcotest.test_case "equal keys lex alike" `Quick
            test_normalize_sound;
          Alcotest.test_case "counts over a script" `Quick
            test_cache_script_counts;
          Alcotest.test_case "a stale entry re-prepares as cold" `Quick
            test_cache_reprepare_matches_cold;
          Alcotest.test_case "a stale entry fails as fresh" `Quick
            test_cache_reprepare_errors;
          Alcotest.test_case "servers keep their config" `Quick
            test_servers_keep_their_config;
        ] );
      ( "faults",
        [
          Alcotest.test_case "alloc-pressure unwind keeps state" `Quick
            test_alloc_fault_unwind_keeps_state;
        ] );
    ]
