(* The error-path corpus: malformed and invalid statements must come
   back as [Error] — never an escaped exception — through the public
   facade under every strategy; parse errors carry offsets and caret
   excerpts; and DML stays atomic when validation, budgets, or probes
   fail mid-statement. *)

open Nra

(* the I/O-fault and budget-kill cases assume every scan touches
   storage; a CI-wide NRA_BUFFER_PAGES run would keep hot pages
   resident and free, so pin the pool off *)
let () = Bufpool.set_frames None

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let all_strategies = List.map snd Nra.strategies

let expect_error_all cat sql =
  List.iter
    (fun s ->
      match Nra.exec ~strategy:s cat sql with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.fail
            (Printf.sprintf "%s accepted: %s" (Nra.strategy_to_string s) sql)
      | exception e ->
          Alcotest.fail
            (Printf.sprintf "%s escaped an exception on %s: %s"
               (Nra.strategy_to_string s) sql (Printexc.to_string e)))
    all_strategies

let no_escape cat sql =
  List.iter
    (fun s ->
      match Nra.exec ~strategy:s cat sql with
      | Ok _ | Error _ -> ()
      | exception e ->
          Alcotest.fail
            (Printf.sprintf "%s escaped an exception on %s: %s"
               (Nra.strategy_to_string s) sql (Printexc.to_string e)))
    all_strategies

let test_malformed_corpus () =
  let cat = Test_support.emp_dept_catalog () in
  List.iter (expect_error_all cat)
    [
      "";
      "select";
      "select from emp";
      "select ename emp";
      "select ~ from emp";
      "select ename from";
      "select ename from emp where";
      "select ename from emp where (";
      "select ename from emp where salary in";
      "select 'unterminated from emp";
      "select ename from nosuch";
      "select nocol from emp";
      "select e.nocol from emp as e";
      "select ename from emp where salary in (select dept_id, budget \
       from dept)";
      "select * from emp union select dname from dept";
      "insert into emp values (1)";
      "insert into nosuch values (1)";
      "insert into emp values ('text', 'x', 1, 1, 1)";
      "insert into emp values (7, null, 1, 1, null)";
      "insert into emp values (1, 'dup', null, null, null)";
      "insert into emp select * from dept";
      "delete from nosuch";
      "update nosuch set salary = 1";
      "update emp set nocol = 1";
      "create table emp (x int, primary key (x))";
      "drop table nosuch";
      "analyze nosuch";
      "with t as (select * from dept), t as (select * from emp) select * \
       from t";
    ]

let test_weird_but_no_escape () =
  let cat = Test_support.emp_dept_catalog () in
  List.iter (no_escape cat)
    [
      "select ename from emp order by 99";
      "select ename from emp limit 0";
      "select distinct salary from emp where salary > all (select \
       salary from emp)";
      "select ename from emp where salary between null and 10";
      "select ename from emp where not (salary is null)";
      "with w as (select emp_id, ename from emp) select * from w where \
       emp_id in (select dept_id from dept)";
      "with emp as (select * from dept) select * from emp";
      "select count(*) from emp group by dept_id having count(*) > 1";
      "select * from emp where manager_id = any (select emp_id from emp)";
    ]

let test_query_rejects_commands () =
  let cat = Test_support.emp_dept_catalog () in
  List.iter
    (fun sql ->
      match Nra.query cat sql with
      | Error m ->
          Alcotest.(check string)
            "redirects to exec" "not a query (use Nra.exec for \
                                 DDL/DML/ANALYZE)" m
      | Ok _ -> Alcotest.fail ("query accepted a command: " ^ sql))
    [
      "delete from emp";
      "insert into emp values (9, 'x', null, null, null)";
      "create table zz (a int, primary key (a))";
      "drop table emp";
      "analyze";
    ];
  (* ... and without mutating anything along the way *)
  Alcotest.(check int) "emp untouched" 6
    (Table.cardinality (Catalog.table cat "emp"))

(* ---------- located parse errors ---------- *)

let test_excerpt_rendering () =
  Alcotest.(check string)
    "caret under the offset" "  select x\n         ^"
    (Sql.Parser.excerpt "select x" 7);
  (* long inputs get a bounded window with ellipses *)
  let long = "select " ^ String.make 200 'a' ^ " from emp" in
  let e = Sql.Parser.excerpt long 208 in
  Alcotest.(check bool) "windowed" true (String.length e < 160);
  Alcotest.(check bool) "elided" true (contains e "…")

let test_located_parse_error () =
  match Sql.Parser.parse_command_located "select a fromm emp" with
  | Error { Sql.Parser.message; offset = Some pos; excerpt } ->
      Alcotest.(check int) "offset of the offending token" 15 pos;
      Alcotest.(check bool) "names the expectation" true
        (contains message "expected keyword from");
      Alcotest.(check bool) "excerpt has a caret" true (contains excerpt "^")
  | Error { offset = None; _ } -> Alcotest.fail "offset missing"
  | Ok _ -> Alcotest.fail "parsed nonsense"

let test_lex_error_located () =
  match Sql.Parser.parse_command_located "select ^ from emp" with
  | Error { Sql.Parser.offset = Some pos; excerpt; _ } ->
      Alcotest.(check int) "offset of the bad character" 7 pos;
      Alcotest.(check bool) "excerpt present" true (contains excerpt "^")
  | Error { offset = None; _ } -> Alcotest.fail "offset missing"
  | Ok _ -> Alcotest.fail "lexed nonsense"

let test_rendered_message_via_facade () =
  let cat = Test_support.emp_dept_catalog () in
  match Nra.query cat "select a fromm emp" with
  | Error m ->
      Alcotest.(check bool) "prefix" true (contains m "parse error: ");
      Alcotest.(check bool) "offset" true (contains m "at offset 15");
      Alcotest.(check bool) "caret line" true (contains m "\n")
  | Ok _ -> Alcotest.fail "parsed nonsense"

(* ---------- the structured API ---------- *)

let test_structured_errors () =
  let cat = Test_support.emp_dept_catalog () in
  (match Nra.run cat "select a fromm emp" with
  | Error (Exec_error.Parse { offset = Some 15; excerpt; _ }) ->
      Alcotest.(check bool) "caret" true (contains excerpt "^")
  | Error e -> Alcotest.fail ("wrong class: " ^ Exec_error.to_string e)
  | Ok _ -> Alcotest.fail "parsed nonsense");
  (match Nra.run cat "select * from nosuch" with
  | Error (Exec_error.Invalid _) -> ()
  | Error e -> Alcotest.fail ("wrong class: " ^ Exec_error.to_string e)
  | Ok _ -> Alcotest.fail "resolved nonsense");
  (match
     Nra.run
       ~guard:(Guard.budget ~sim_io_ms:1e-9 ())
       cat
       "select ename from emp where dept_id in (select dept_id from \
        dept where budget > 40)"
   with
  | Error (Exec_error.Budget_exceeded Guard.Sim_io) -> ()
  | Error e -> Alcotest.fail ("wrong class: " ^ Exec_error.to_string e)
  | Ok _ -> Alcotest.fail "expected a kill");
  let tok = Guard.token () in
  Guard.cancel tok;
  match
    Nra.run ~guard:(Guard.budget ~cancel_on:tok ()) cat
      "select ename from emp"
  with
  | Error Exec_error.Cancelled -> ()
  | Error e -> Alcotest.fail ("wrong class: " ^ Exec_error.to_string e)
  | Ok _ -> Alcotest.fail "expected cancellation"

(* ---------- DML atomicity ---------- *)

let test_insert_batch_atomic () =
  let cat = Test_support.emp_dept_catalog () in
  let gen0 = Catalog.generation cat "emp" in
  (* second row collides on the key: the whole batch must be rejected *)
  (match
     Nra.exec cat
       "insert into emp values (8, 'ok', null, null, null), (8, 'dup', \
        null, null, null)"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate key accepted");
  Alcotest.(check int) "no partial insert" 6
    (Table.cardinality (Catalog.table cat "emp"));
  Alcotest.(check int) "generation untouched" gen0
    (Catalog.generation cat "emp")

let test_dml_atomic_under_budget_kill () =
  let cat = Test_support.emp_dept_catalog () in
  let gen0 = Catalog.generation cat "emp" in
  let guard = Guard.budget ~sim_io_ms:1e-9 () in
  (match
     Nra.exec ~guard cat
       "delete from emp where dept_id in (select dept_id from dept \
        where budget > 0)"
   with
  | Error m ->
      Alcotest.(check bool) "killed" true (contains m "budget exceeded")
  | Ok _ -> Alcotest.fail "expected the probe to be killed");
  Alcotest.(check int) "rows untouched" 6
    (Table.cardinality (Catalog.table cat "emp"));
  Alcotest.(check int) "generation untouched" gen0
    (Catalog.generation cat "emp");
  (* insert-select killed mid-probe leaves the target empty *)
  (match
     Nra.exec cat
       "create table names (emp_id int, ename string, primary key \
        (emp_id))"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (match
     Nra.exec ~guard cat
       "insert into names select emp_id, ename from emp where dept_id \
        in (select dept_id from dept where budget > 0)"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the insert's query to be killed");
  Alcotest.(check int) "target still empty" 0
    (Table.cardinality (Catalog.table cat "names"));
  (* the engine (and its I/O accounting) survives: the same statements
     succeed without the budget *)
  match Nra.exec cat "delete from emp where dept_id in (select dept_id \
                      from dept where budget > 0)" with
  | Ok (Nra.Count n) -> Alcotest.(check int) "deletes after kill" 4 n
  | Ok _ -> Alcotest.fail "expected a count"
  | Error m -> Alcotest.fail m

let () =
  Alcotest.run "errors"
    [
      ( "corpus",
        [
          Alcotest.test_case "malformed -> Error everywhere" `Quick
            test_malformed_corpus;
          Alcotest.test_case "odd statements never escape" `Quick
            test_weird_but_no_escape;
          Alcotest.test_case "query refuses commands" `Quick
            test_query_rejects_commands;
        ] );
      ( "located",
        [
          Alcotest.test_case "excerpt rendering" `Quick
            test_excerpt_rendering;
          Alcotest.test_case "parse error offset" `Quick
            test_located_parse_error;
          Alcotest.test_case "lex error offset" `Quick
            test_lex_error_located;
          Alcotest.test_case "rendered via facade" `Quick
            test_rendered_message_via_facade;
        ] );
      ( "structured",
        [
          Alcotest.test_case "taxonomy" `Quick test_structured_errors;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "batch insert" `Quick test_insert_batch_atomic;
          Alcotest.test_case "budget kill mid-DML" `Quick
            test_dml_atomic_under_budget_kill;
        ] );
    ]
