(* Crash-recovery corpus for the write-ahead log.

   For every DML shape we first run the statement cleanly on a fresh
   catalog, counting its fault points via [Fault.draws].  Then, for
   each point k, we re-run on another fresh catalog with a crash armed
   at exactly point k ([Fault.arm_crash]), catch the simulated power
   loss, and prove [Wal.recover] restores the exact pre-statement
   catalog (byte-identical CSV of every table) — and that recovering
   again is a no-op (replay is idempotent, images are absolute).

   A second pass arms an escaping [Io_fault] (retries zeroed) at every
   point instead: the facade's inline [Wal.abort] must leave the same
   pre-statement state, and a later [recover] must change nothing
   (the Abort record tells it the statement needs no undo). *)

open Nra

(* the harness numbers fault points itself; a CI-wide NRA_FAULT_INJECT
   run must not perturb the draw sequence *)
let () = Fault.disable ()

let fingerprint cat =
  Catalog.tables cat
  |> List.map (fun t -> (Table.name t, Relation.to_csv (Table.relation t)))
  |> List.sort compare
  |> List.map (fun (n, csv) -> n ^ "\n" ^ csv)
  |> String.concat "\n====\n"

(* fresh world: catalog rebuilt, WAL emptied, draw counter re-zeroed.
   Pool residency is cleared too (a CI run may enable NRA_BUFFER_PAGES):
   warm pages skip their charge draws, so the dry run and the armed
   re-run must both start cold for the point numbering to line up. *)
let fresh ?(max_retries = Fault.default_config.Fault.max_retries) () =
  Wal.reset ();
  Bufpool.reset ();
  Fault.configure ~max_retries 0.0;
  Test_support.emp_dept_catalog ()

let exec_ok cat sql =
  match Nra.exec cat sql with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "statement %S failed: %s" sql m

(* (name, setup statements run un-armed, the statement under test) —
   one entry per DML shape the facade logs *)
let dml_corpus =
  [
    ("create", [], "create table scratch (id int, v int, primary key (id))");
    ( "insert-values",
      [],
      "insert into emp values (7, 'gil', 2, 55, 1), (8, 'hal', 3, 45, 5)" );
    ( "insert-select",
      [ "create table hipay (emp_id int, salary int, primary key (emp_id))" ],
      "insert into hipay select emp_id, salary from emp where salary >= 70" );
    ("delete", [], "delete from emp where salary < 65");
    ( "delete-subquery",
      [],
      "delete from project where not exists (select * from emp where \
       emp.emp_id = project.lead_emp and emp.salary >= 70)" );
    ("update", [], "update emp set salary = salary + 10 where dept_id = 1");
    ( "update-subquery",
      [],
      "update dept set budget = 0 where not exists (select * from emp where \
       emp.dept_id = dept.dept_id and emp.salary >= 70)" );
    ("drop", [], "drop table project");
  ]

(* count the statement's fault points with a clean dry run *)
let count_points setup sql =
  let cat = fresh () in
  List.iter (exec_ok cat) setup;
  let d0 = Fault.draws () in
  exec_ok cat sql;
  let n = Fault.draws () - d0 in
  Alcotest.(check bool) (sql ^ ": draws fault points") true (n > 0);
  n

let test_crash_recovery () =
  List.iter
    (fun (name, setup, sql) ->
      let n = count_points setup sql in
      for k = 1 to n do
        let cat = fresh () in
        List.iter (exec_ok cat) setup;
        let before = fingerprint cat in
        Fault.arm_crash ~at:(Fault.draws () + k);
        (match Nra.exec cat sql with
        | exception Fault.Crash _ -> ()
        | Ok _ ->
            Alcotest.failf "%s: crash at point %d/%d did not fire" name k n
        | Error m ->
            Alcotest.failf "%s: crash at point %d/%d surfaced as error: %s"
              name k n m);
        Fault.disarm ();
        ignore (Wal.recover cat);
        Alcotest.(check string)
          (Printf.sprintf "%s: recovered @%d/%d" name k n)
          before (fingerprint cat);
        (* recovery is idempotent: recovering again changes nothing *)
        ignore (Wal.recover cat);
        Alcotest.(check string)
          (Printf.sprintf "%s: recover twice @%d/%d" name k n)
          before (fingerprint cat)
      done)
    dml_corpus

let test_inline_abort () =
  List.iter
    (fun (name, setup, sql) ->
      let n = count_points setup sql in
      for k = 1 to n do
        (* retries zeroed so the armed fault escapes and takes the
           facade's inline-abort path instead of the crash path *)
        let cat = fresh ~max_retries:0 () in
        List.iter (exec_ok cat) setup;
        let before = fingerprint cat in
        Fault.arm_fault ~at:(Fault.draws () + k);
        (match Nra.exec cat sql with
        | Error _ -> ()
        | Ok _ ->
            Alcotest.failf "%s: fault at point %d/%d was absorbed" name k n);
        Fault.disarm ();
        Alcotest.(check string)
          (Printf.sprintf "%s: aborted inline @%d/%d" name k n)
          before (fingerprint cat);
        (* the Abort record makes recovery a no-op afterwards *)
        ignore (Wal.recover cat);
        Alcotest.(check string)
          (Printf.sprintf "%s: recover after abort @%d/%d" name k n)
          before (fingerprint cat)
      done)
    dml_corpus

let test_transient_fault_absorbed () =
  (* with the default retry budget an armed one-shot fault is
     transient: the retry succeeds and the statement completes *)
  List.iter
    (fun (name, setup, sql) ->
      let clean = fresh () in
      List.iter (exec_ok clean) setup;
      exec_ok clean sql;
      let expected = fingerprint clean in
      let cat = fresh () in
      List.iter (exec_ok cat) setup;
      Fault.arm_fault ~at:(Fault.draws () + 1);
      exec_ok cat sql;
      Fault.disarm ();
      Alcotest.(check string)
        (name ^ ": retried to completion")
        expected (fingerprint cat))
    dml_corpus

let test_multi_statement_recovery () =
  (* commit one statement, crash inside the next: recovery must land on
     the state after the first, before the second *)
  let stmt1 = "insert into emp values (7, 'gil', 2, 55, 1)" in
  let stmt2 = "update emp set salary = salary + 10 where dept_id = 1" in
  let cat = fresh () in
  exec_ok cat stmt1;
  let after1 = fingerprint cat in
  let d0 = Fault.draws () in
  exec_ok cat stmt2;
  let n = Fault.draws () - d0 in
  for k = 1 to n do
    let cat = fresh () in
    exec_ok cat stmt1;
    Fault.arm_crash ~at:(Fault.draws () + k);
    (match Nra.exec cat stmt2 with
    | exception Fault.Crash _ -> ()
    | _ -> Alcotest.failf "crash at point %d/%d did not fire" k n);
    Fault.disarm ();
    ignore (Wal.recover cat);
    Alcotest.(check string)
      (Printf.sprintf "multi-statement recovered @%d/%d" k n)
      after1 (fingerprint cat)
  done

let test_redo_restores_lost_writes () =
  (* physical redo: a statement that commits while another statement
     of the catalog is still running keeps its delta in the log; if
     its effect is lost with a crash (we put the table back behind the
     WAL's back), replay re-applies the committed delta *)
  List.iter
    (fun sql ->
      let cat = fresh () in
      let lost = Relation.rows (Table.relation (Catalog.table cat "emp")) in
      let running = Wal.begin_stmt cat in
      (* left running: the crash kills it *)
      exec_ok cat sql;
      let committed = fingerprint cat in
      Catalog.update_rows cat "emp" lost;
      Alcotest.(check bool) (sql ^ ": torn log") true (Wal.needs_recovery cat);
      let r = Wal.recover cat in
      Alcotest.(check int) (sql ^ ": redone") 1 r.Wal.redone;
      Alcotest.(check string) (sql ^ ": redo rebuilt the committed write")
        committed (fingerprint cat);
      (* the running statement was rolled back and the log emptied *)
      Alcotest.(check bool) (sql ^ ": healed") false (Wal.needs_recovery cat);
      ignore running)
    [
      "insert into emp values (7, 'gil', 2, 55, 1)";
      "delete from emp where salary < 65";
      "update emp set salary = salary + 10 where dept_id = 1";
    ]

let test_wal_counters () =
  let cat = fresh () in
  Alcotest.(check int) "empty log" 0 (Wal.records ());
  exec_ok cat "insert into emp values (7, 'gil', 2, 55, 1)";
  (* Begin + Op + Commit *)
  Alcotest.(check int) "one statement logs three records" 3 (Wal.records ());
  (match Nra.query cat "select ename from emp where emp_id = 7" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "queries do not log" 3 (Wal.records ());
  Wal.reset ();
  Alcotest.(check int) "reset empties the counter" 0 (Wal.records ())

(* ---------- one log per catalog ---------- *)

let test_two_catalogs () =
  (* two catalogs each hold a table [t], of 1 and 3 rows; a crash
     leaves a statement on the first unfinished.  Recovering the first
     reads only its own log: the second catalog's committed writes stay
     where they are *)
  let setup rows =
    let cat = Catalog.create () in
    exec_ok cat "create table t (id int, primary key (id))";
    List.iter
      (fun i -> exec_ok cat (Printf.sprintf "insert into t values (%d)" i))
      rows;
    cat
  in
  ignore (fresh ());
  let one = setup [ 1 ] in
  let three = setup [ 1; 2; 3 ] in
  let before_one = fingerprint one and before_three = fingerprint three in
  let sql = "insert into t values (9)" in
  let dry = setup [ 1 ] in
  let d0 = Fault.draws () in
  exec_ok dry sql;
  let n = Fault.draws () - d0 in
  Fault.arm_crash ~at:(Fault.draws () + n);
  (match Nra.exec one sql with
  | exception Fault.Crash _ -> ()
  | _ -> Alcotest.fail "crash at the commit did not fire");
  Fault.disarm ();
  Alcotest.(check bool) "first log torn" true (Wal.needs_recovery one);
  Alcotest.(check bool) "second log clean" false (Wal.needs_recovery three);
  (match Wal.recover_if_needed one with
  | Some r -> Alcotest.(check int) "the insert undone" 1 r.Wal.undone
  | None -> Alcotest.fail "recovery did not run");
  Alcotest.(check string) "first catalog restored" before_one
    (fingerprint one);
  Alcotest.(check string) "second catalog untouched" before_three
    (fingerprint three)

(* ---------- writes cost what they change ---------- *)

let wide = 5_000

(* a [wide]-row table [w (id, v)], registered without the WAL *)
let wide_catalog () =
  let cat = Catalog.create () in
  Catalog.register cat
    (Table.create ~name:"w" ~key:[ "id" ]
       [ Schema.column "id" Ttype.Int; Schema.column "v" Ttype.Int ]
       (Array.init wide (fun i -> [| Value.Int i; Value.Int (i mod 97) |])));
  cat

(* one single-row INSERT and the DELETE of that row *)
let insert_delete cat i =
  exec_ok cat (Printf.sprintf "insert into w values (%d, 1)" (wide + i));
  exec_ok cat (Printf.sprintf "delete from w where id = %d" (wide + i))

let test_log_stays_flat () =
  (* the log holds the statements in flight, not the statements run:
     1,000 INSERT + DELETE pairs leave the live heap where 100 did *)
  ignore (fresh ());
  let cat = wide_catalog () in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  for i = 0 to 99 do
    insert_delete cat i
  done;
  let l100 = live () in
  for i = 100 to 999 do
    insert_delete cat i
  done;
  let l1000 = live () in
  Alcotest.(check int) "table back to its rows" wide
    (Table.cardinality (Catalog.table cat "w"));
  (* a delta log that leaked would keep 900 pairs of rows and records
     (about 27 K words), a full-image one 900 pairs of tables (9 M) *)
  if l1000 - l100 > 10_000 then
    Alcotest.failf "live words grew by %d over 900 write pairs"
      (l1000 - l100)

let test_words_per_existing_row () =
  (* a one-row write allocates a few words per row it keeps: the
     INSERT's new row array, the DELETE's survivor array and doomed-row
     marks, and the [id] column the DELETE's filter reads from the new
     table version (about 3.4 words per row for the pair).  The key
     check probes the one fresh row and builds no index.  Rebuilding
     the primary-key index on every write cost about 8.7, revalidating
     every row and logging full images about 24. *)
  ignore (fresh ());
  let cat = wide_catalog () in
  let per_pair = Test_support.words_per 20 (insert_delete cat) in
  let per_row = per_pair /. float_of_int wide in
  if per_row > 4.0 then
    Alcotest.failf "%.2f words per existing row for an INSERT + DELETE"
      per_row

let () =
  Alcotest.run "wal"
    [
      ( "crash",
        [
          Alcotest.test_case "kill at every fault point" `Quick
            test_crash_recovery;
          Alcotest.test_case "multi-statement" `Quick
            test_multi_statement_recovery;
          Alcotest.test_case "redo restores lost writes" `Quick
            test_redo_restores_lost_writes;
        ] );
      ( "abort",
        [
          Alcotest.test_case "inline undo at every fault point" `Quick
            test_inline_abort;
          Alcotest.test_case "transient faults absorbed" `Quick
            test_transient_fault_absorbed;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "record counters" `Quick test_wal_counters;
          Alcotest.test_case "one log per catalog" `Quick test_two_catalogs;
          Alcotest.test_case "log stays flat" `Quick test_log_stays_flat;
          Alcotest.test_case "words per existing row" `Quick
            test_words_per_existing_row;
        ] );
    ]
