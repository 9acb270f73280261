(* Common table expressions: statement-local relations, chaining, use
   inside subqueries, shadowing of base tables, error cases, and the
   footprint the serving layer locks from. *)

open Nra
open Test_support
module A = Nra.Planner.Analyze
module Ast = Nra.Sql.Ast

let basic_sql =
  "with rich as (select ename, salary from emp where salary > 65) select \
   ename from rich order by ename"

let star_sql = "with t as (select dept_id, budget from dept) select * from t"

let rowid_sql =
  "with t as (select dept_id from dept) select __rowid from t where \
   __rowid = 0"

let chained_sql =
  "with paid as (select dept_id, salary from emp where salary is not \
   null), tops as (select dept_id, max(salary) as m from paid group by \
   dept_id) select m from tops order by m desc limit 1"

let subquery_sql =
  "with busy as (select owner_dept from project where hours is not null) \
   select dname from dept where exists (select * from busy where \
   busy.owner_dept = dept.dept_id)"

let setop_sql =
  "with names as (select ename as n from emp union select dname as n from \
   dept) select count(*) from names"

let nested_sql =
  "with solvent as (select dept_id from dept where budget >= all (select \
   hours from project where project.owner_dept = dept.dept_id)) select \
   count(*) from solvent"

(* [emp] is the CTE in the main query and in its subquery *)
let shadow_sql =
  "with emp as (select dept_id, dname from dept where budget >= 10) \
   select dname from emp where exists (select * from project where \
   project.owner_dept = emp.dept_id and project.owner_dept in (select \
   dept_id from emp))"

(* a CTE body does not see its own name: the inner [emp] is the table,
   and the second CTE sees the first *)
let self_named_sql =
  "with emp as (select emp_id, salary from emp where salary >= 70), n as \
   (select count(*) as c from emp) select c from n"

let unknown_column_sql =
  "with t as (select dept_id from dept) select nosuch from t"

let test_basic () =
  let cat = emp_dept_catalog () in
  let rel = q cat basic_sql in
  (* ada 90, cyd 70, eve 80 *)
  Alcotest.(check int) "rows" 3 (Relation.cardinality rel);
  Alcotest.(check bool) "no catalog table" false (Catalog.mem cat "rich")

let test_star_hides_rowid () =
  let cat = emp_dept_catalog () in
  let rel = q cat star_sql in
  Alcotest.(check int) "only the two selected columns" 2
    (Schema.arity (Relation.schema rel));
  (* but the synthetic key remains addressable *)
  let rel = q cat rowid_sql in
  Alcotest.(check int) "rowid addressable" 1 (Relation.cardinality rel)

let test_chained_ctes () =
  let cat = emp_dept_catalog () in
  check_rows "max of maxima" [ [ Some 90 ] ] (q cat chained_sql)

let test_cte_in_subquery () =
  let cat = emp_dept_catalog () in
  let rel = check_equivalent cat subquery_sql in
  Alcotest.(check int) "departments with logged projects" 3
    (Relation.cardinality rel)

let test_cte_of_setop_and_nested () =
  let cat = emp_dept_catalog () in
  check_rows "6 employees + 4 departments" [ [ Some 10 ] ] (q cat setop_sql);
  Alcotest.(check int) "nested query inside a CTE" 1
    (Relation.cardinality (q cat nested_sql))

let fingerprint cat =
  Catalog.tables cat
  |> List.map (fun t -> Table.name t ^ "\n" ^ Relation.to_csv (Table.relation t))
  |> String.concat "\n"

let test_shadowing () =
  let cat = emp_dept_catalog () in
  let before = fingerprint cat in
  let rel = check_equivalent cat shadow_sql in
  Alcotest.(check (list value_testable))
    "the CTE's rows under every strategy" [ vs "eng"; vs "sales" ]
    (List.map (fun r -> r.(0)) (rows_of rel));
  Alcotest.(check string) "base emp untouched" before (fingerprint cat);
  check_rows "base emp still has six rows" [ [ Some 6 ] ]
    (q cat "select count(*) from emp")

let test_body_reads_the_base_table () =
  let cat = emp_dept_catalog () in
  (* ada 90, cyd 70, eve 80 *)
  check_rows "the inner emp is the table" [ [ Some 3 ] ]
    (check_equivalent cat self_named_sql);
  check_rows "direct reuse" [ [ Some 3 ] ]
    (check_equivalent cat
       "with emp as (select emp_id from emp where salary >= 70) select \
        count(*) from emp")

let test_no_catalog_or_log () =
  let cat = emp_dept_catalog () in
  let gen = Catalog.global_generation cat and records = Wal.records () in
  List.iter
    (fun sql ->
      List.iter
        (fun (_, strategy) ->
          match Nra.exec ~strategy cat sql with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "%s: %s" sql m)
        Nra.strategies)
    [ basic_sql; chained_sql; shadow_sql; self_named_sql ];
  Alcotest.(check int) "catalog generation unchanged" gen
    (Catalog.global_generation cat);
  Alcotest.(check int) "no WAL record" records (Wal.records ());
  Alcotest.(check bool) "no torn statement" false (Wal.needs_recovery cat)

let test_errors () =
  let cat = emp_dept_catalog () in
  let before = fingerprint cat in
  (match Nra.query cat unknown_column_sql with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown column");
  (match
     Nra.query cat
       "with t as (select dept_id from dept), t as (select emp_id from \
        emp) select * from t"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a CTE name twice");
  Alcotest.(check string) "catalog untouched after failures" before
    (fingerprint cat);
  (* exec-only commands are rejected by query *)
  match Nra.query cat "drop table dept" with
  | Error m ->
      Alcotest.(check bool) "mentions exec" true (String.length m > 0);
      Alcotest.(check bool) "table untouched" true (Catalog.mem cat "dept")
  | Ok _ -> Alcotest.fail "query performed DDL"

(* ---------- footprints ---------- *)

let footprint sql = Nra.command_footprint (Nra.Sql.Parser.parse_command sql)

let test_footprint_names_base_tables () =
  let check sql read =
    match footprint sql with
    | Nra.Tables t ->
        Alcotest.(check (list string)) (sql ^ ": read") read t.read;
        Alcotest.(check (list string)) (sql ^ ": write") [] t.write
    | Nra.All_tables -> Alcotest.failf "%s: footprint is All_tables" sql
  in
  check basic_sql [ "emp" ];
  check chained_sql [ "emp" ];
  check shadow_sql [ "dept"; "project" ];
  check self_named_sql [ "emp" ]

(* The catalog tables Analyze binds for a command, as the engine
   analyzes it: DML through its probe query, each CTE body with the
   CTEs before it in scope.  A CTE's rows do not matter to analysis, so
   its table is built empty, with the schema the engine gives it. *)
let rec statement_sources ~ctes cat = function
  | Ast.Select q ->
      List.filter_map (fun (_, bd) -> bd.A.source) (A.analyze ~ctes cat q).A.by_uid
  | Ast.Setop (_, l, r) ->
      statement_sources ~ctes cat l @ statement_sources ~ctes cat r

let rec statement_columns ~ctes cat = function
  | Ast.Select q ->
      Schema.columns
        (Relation.schema (Exec.Naive.run cat (A.analyze ~ctes cat q)))
  | Ast.Setop (_, l, _) -> statement_columns ~ctes cat l

let cte_table ~ctes cat name body =
  let cols =
    Array.to_list (statement_columns ~ctes cat body)
    |> List.map (fun (c : Schema.column) -> { c with Schema.table = "" })
  in
  Table.create ~name ~key:[ "__rowid" ]
    (Schema.column "__rowid" Ttype.Int :: cols)
    [||]

let command_sources cat = function
  | Ast.Cmd_query s | Ast.Insert_select (_, s) ->
      statement_sources ~ctes:[] cat s
  | Ast.Delete (table, where) | Ast.Update (table, _, where) ->
      statement_sources ~ctes:[] cat
        (Ast.Select
           (Ast.simple_query ~select:[ Ast.Star ] ~from:[ (table, None) ]
              ?where ()))
  | Ast.With_query (ctes, s) ->
      let scope, sources =
        List.fold_left
          (fun (scope, acc) (name, body) ->
            ( (name, cte_table ~ctes:scope cat name body) :: scope,
              statement_sources ~ctes:scope cat body @ acc ))
          ([], []) ctes
      in
      statement_sources ~ctes:scope cat s @ sources
  | _ -> []

(* the DML-with-subquery shapes of the commands suite *)
let dml_tables =
  [
    "create table books (id int, title string, pages int, primary key (id))";
    "create table big_books (id int, title string, pages int, primary key \
     (id))";
    "create table loans (lid int, book int, primary key (lid))";
    "create table hot (hid int, primary key (hid))";
  ]

let dml_shapes =
  [
    "insert into big_books select id, title, pages from books where pages \
     > 15";
    "delete from books where not exists (select * from loans where \
     loans.book = books.id)";
    "update books set title = 'HOT' where id in (select hid from hot)";
    "insert into books select emp_id, ename, salary from emp where dept_id \
     in (select dept_id from dept)";
  ]

let with_queries =
  [
    basic_sql;
    star_sql;
    rowid_sql;
    chained_sql;
    subquery_sql;
    setop_sql;
    nested_sql;
    shadow_sql;
    self_named_sql;
    unknown_column_sql;
  ]

let test_footprint_covers_analysis () =
  let cat = emp_dept_catalog () in
  List.iter
    (fun sql ->
      match Nra.exec cat sql with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    dml_tables;
  List.iter
    (fun sql ->
      let cmd = Nra.Sql.Parser.parse_command sql in
      let locked =
        match Nra.command_footprint cmd with
        | Nra.All_tables -> None
        | Nra.Tables { read; write } -> Some (read @ write)
      in
      match command_sources cat cmd with
      | exception A.Error _ when sql = unknown_column_sql -> ()
      | sources ->
          List.iter
            (fun name ->
              match locked with
              | None -> ()
              | Some names ->
                  if not (List.mem name names) then
                    Alcotest.failf "%s: binds %s outside its footprint" sql
                      name)
            sources)
    (subquery_corpus @ with_queries @ dml_shapes)

let () =
  Alcotest.run "with"
    [
      ( "ctes",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "star hides rowid" `Quick test_star_hides_rowid;
          Alcotest.test_case "chained" `Quick test_chained_ctes;
          Alcotest.test_case "inside subqueries" `Quick test_cte_in_subquery;
          Alcotest.test_case "setops and nesting" `Quick
            test_cte_of_setop_and_nested;
          Alcotest.test_case "shadowing a table" `Quick test_shadowing;
          Alcotest.test_case "a body reads the table it shadows" `Quick
            test_body_reads_the_base_table;
          Alcotest.test_case "no catalog or log writes" `Quick
            test_no_catalog_or_log;
          Alcotest.test_case "errors leave the catalog untouched" `Quick
            test_errors;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "names only base tables" `Quick
            test_footprint_names_base_tables;
          Alcotest.test_case "covers every table analysis binds" `Quick
            test_footprint_covers_analysis;
        ] );
    ]
