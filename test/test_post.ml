(* Output post-processing: projection, DISTINCT, ORDER BY, LIMIT,
   GROUP BY + aggregates, HAVING — over both flat queries and queries
   whose WHERE contains subqueries. *)

open Nra
open Test_support

let cat () = emp_dept_catalog ()

let test_projection_expressions () =
  let rel = q (cat ()) "select salary + 10 as sp, ename from emp where emp_id = 1" in
  check_rows "computed column first" [ [ Some 100 ] ]
    (Relation.project rel [ 0 ]);
  Alcotest.(check string) "column names" "sp"
    (Schema.qualified_name (Schema.col (Relation.schema rel) 0))

let test_star_expansion () =
  let rel = q (cat ()) "select * from dept where dept_id = 1" in
  Alcotest.(check int) "all columns" 3 (Schema.arity (Relation.schema rel));
  (* qualified star picks one table of a join *)
  let rel =
    q (cat ())
      "select d.*, ename from emp, dept d where emp.dept_id = d.dept_id \
       and emp_id = 1"
  in
  Alcotest.(check int) "d.* plus one column" 4
    (Schema.arity (Relation.schema rel));
  Alcotest.(check string) "first column from dept" "dept_id"
    (Schema.qualified_name (Schema.col (Relation.schema rel) 0));
  match Nra.query (cat ()) "select zz.* from dept" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown alias in qualified star"

let test_order_by () =
  let rel = q (cat ()) "select ename from emp order by salary desc, ename" in
  let names = List.map (fun r -> Value.to_string r.(0)) (Array.to_list (Relation.rows rel)) in
  (* salary desc: ada 90, eve 80, cyd 70, bob 60, fay 40, dan NULL last *)
  Alcotest.(check (list string)) "order"
    [ "'ada'"; "'eve'"; "'cyd'"; "'bob'"; "'fay'"; "'dan'" ]
    names

let test_order_by_hidden_key () =
  (* ordering key not in the select list *)
  let rel = q (cat ()) "select ename from emp order by emp_id desc limit 2" in
  let names = List.map (fun r -> Value.to_string r.(0)) (Array.to_list (Relation.rows rel)) in
  Alcotest.(check (list string)) "hidden key" [ "'fay'"; "'eve'" ] names;
  Alcotest.(check int) "only selected columns remain" 1
    (Schema.arity (Relation.schema rel))

let test_limit () =
  let rel = q (cat ()) "select ename from emp limit 0" in
  Alcotest.(check int) "limit 0" 0 (Relation.cardinality rel);
  let rel = q (cat ()) "select ename from emp limit 100" in
  Alcotest.(check int) "limit beyond" 6 (Relation.cardinality rel)

let test_distinct () =
  let rel = q (cat ()) "select distinct dept_id from emp" in
  (* 1, 2, 3, NULL *)
  Alcotest.(check int) "distinct groups" 4 (Relation.cardinality rel)

let test_distinct_order_by () =
  let rel =
    q (cat ()) "select distinct dept_id from emp order by dept_id desc"
  in
  Alcotest.(check int) "rows" 4 (Relation.cardinality rel);
  let first = (Relation.rows rel).(0) in
  Alcotest.check value_testable "desc first" (vi 3) first.(0);
  (* ORDER BY something not selected under DISTINCT is rejected *)
  match Nra.query (cat ()) "select distinct dept_id from emp order by salary"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted DISTINCT with foreign ORDER BY key"

let test_group_by () =
  let rel =
    q (cat ())
      "select dept_id, count(*) as n, sum(salary) as s from emp group by \
       dept_id order by dept_id"
  in
  check_rows "groups (NULL group first)"
    [
      [ None; Some 1; Some 40 ];
      [ Some 1; Some 2; Some 150 ];
      [ Some 2; Some 2; Some 70 ];
      [ Some 3; Some 1; Some 80 ];
    ]
    rel

let test_group_by_expression_key () =
  let rel =
    q (cat ())
      "select salary - salary as z, count(*) from emp where salary is not \
       null group by salary - salary"
  in
  check_rows "expression key" [ [ Some 0; Some 5 ] ] rel

let test_having () =
  let rel =
    q (cat ())
      "select dept_id, count(*) from emp group by dept_id having count(*) > \
       1 order by dept_id"
  in
  check_rows "having filters groups"
    [ [ Some 1; Some 2 ]; [ Some 2; Some 2 ] ]
    rel;
  let rel =
    q (cat ())
      "select dept_id from emp group by dept_id having min(salary) >= 60 \
       and count(salary) = 2"
  in
  (* count(salary) ignores dan's NULL, distinguishing dept 2 from dept 1 *)
  check_rows "having with un-selected aggregates" [ [ Some 1 ] ] rel

let test_global_aggregate () =
  let rel = q (cat ()) "select count(*), avg(salary), min(ename) from emp" in
  let row = (Relation.rows rel).(0) in
  Alcotest.check value_testable "count" (vi 6) row.(0);
  Alcotest.check value_testable "avg ignores null" (vf 68.0) row.(1);
  Alcotest.check value_testable "min string" (vs "ada") row.(2)

let test_global_aggregate_empty_input () =
  let rel = q (cat ()) "select count(*), sum(salary) from emp where salary > 1000" in
  check_rows "count 0, sum NULL" [ [ Some 0; None ] ] rel

let test_group_by_after_subquery () =
  (* aggregation happens after the WHERE subqueries, in every executor *)
  let cat = cat () in
  let sql =
    "select dept_id, count(*) as n from emp where dept_id in (select \
     dept_id from dept where budget is not null) group by dept_id order by \
     dept_id"
  in
  let rel = check_equivalent cat sql in
  check_rows "post-subquery grouping"
    [ [ Some 1; Some 2 ]; [ Some 2; Some 2 ] ]
    rel

(* A frame handed on as base rows plus a selection is post-processed in
   place: [Post.apply ~sel] returns what post-processing the gathered
   rows returns, and stages as many rows of the same width, for every
   output shape.  The selection is out of position order, as a site
   that sorted its outer rows hands it on. *)
let test_selection_in_place () =
  let cat = cat () in
  let emp = Table.relation (Catalog.table cat "emp") in
  let sel = [| 5; 0; 3; 1; 4 |] in
  let count = 4 in
  let gathered = Relation.gather emp sel count in
  List.iter
    (fun sql ->
      let t =
        match Planner.Analyze.analyze_string cat sql with
        | Ok t -> t
        | Error m -> Alcotest.fail (sql ^ ": " ^ m)
      in
      let output = t.Planner.Analyze.output in
      let post ?sel rel =
        Iosim.reset ();
        let out = Relation.to_csv (Exec.Post.apply ?sel output rel) in
        let g = Governor.stats () in
        Printf.sprintf "%s\n%d stagings, %d rows, %d bytes" out
          g.Governor.stagings g.Governor.staged_rows
          g.Governor.high_water_bytes
      in
      Alcotest.(check string) sql (post gathered)
        (post ~sel:(sel, count) emp))
    [
      "select ename, salary * 2 as s2 from emp";
      "select * from emp";
      "select distinct dept_id from emp order by dept_id desc";
      "select ename from emp order by salary, ename limit 2";
      "select dept_id, count(*), max(salary) from emp group by dept_id \
       having count(*) > 0 order by dept_id";
      "select count(*), sum(salary) from emp";
    ]

let test_errors () =
  let expect_err sql =
    match Nra.query (cat ()) sql with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted: " ^ sql)
  in
  expect_err "select ename, count(*) from emp";
  expect_err "select ename from emp group by dept_id";
  expect_err "select dept_id from emp group by dept_id having ename = 'x'"

let () =
  Alcotest.run "post"
    [
      ( "projection",
        [
          Alcotest.test_case "expressions" `Quick test_projection_expressions;
          Alcotest.test_case "star" `Quick test_star_expansion;
          Alcotest.test_case "a selection is read in place" `Quick
            test_selection_in_place;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "order by" `Quick test_order_by;
          Alcotest.test_case "hidden key" `Quick test_order_by_hidden_key;
          Alcotest.test_case "limit" `Quick test_limit;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "distinct + order by" `Quick
            test_distinct_order_by;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "expression key" `Quick
            test_group_by_expression_key;
          Alcotest.test_case "having" `Quick test_having;
          Alcotest.test_case "global" `Quick test_global_aggregate;
          Alcotest.test_case "global over empty" `Quick
            test_global_aggregate_empty_input;
          Alcotest.test_case "after subqueries" `Quick
            test_group_by_after_subquery;
        ] );
      ("errors", [ Alcotest.test_case "rejected" `Quick test_errors ]);
    ]
