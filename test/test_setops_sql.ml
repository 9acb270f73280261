(* SQL-level set operations: UNION / INTERSECT / EXCEPT with and without
   ALL, precedence, parenthesization, ORDER BY / LIMIT hoisting, error
   cases, and nested queries inside the components. *)

open Nra
open Test_support

let cat () = emp_dept_catalog ()

let test_union () =
  let rel =
    q (cat ())
      "select dept_id from emp where salary > 70 union select dept_id from \
       emp where salary < 50"
  in
  (* {1 (ada 90), 3 (eve 80)} ∪ {null (fay 40)} *)
  check_rows "union dedups" [ [ None ]; [ Some 1 ]; [ Some 3 ] ] rel

let test_union_all () =
  let rel =
    q (cat ())
      "select dept_id from emp union all select dept_id from emp"
  in
  Alcotest.(check int) "bag semantics" 12 (Relation.cardinality rel)

let test_intersect_except () =
  let rel =
    q (cat ())
      "select dept_id from emp intersect select dept_id from dept"
  in
  check_rows "intersect" [ [ Some 1 ]; [ Some 2 ]; [ Some 3 ] ] rel;
  let rel =
    q (cat ())
      "select dept_id from dept except select dept_id from emp"
  in
  check_rows "except" [ [ Some 4 ] ] rel;
  (* with and without ALL, against a list scan, row for row in order:
     sides whose rows repeat and hold NULLs (NULL equals NULL) *)
  let rows sql = Array.to_list (Relation.rows (q (cat ()) sql)) in
  let rec remove_first r = function
    | [] -> []
    | x :: xs -> if Row.equal x r then xs else x :: remove_first r xs
  in
  let distinct l =
    List.rev
      (List.fold_left
         (fun seen r ->
           if List.exists (Row.equal r) seen then seen else r :: seen)
         [] l)
  in
  let list_setop op a b =
    let mem r l = List.exists (Row.equal r) l in
    let bag = ref b in
    (* take one of [r]'s copies out of [b], if one is left *)
    let take r =
      mem r !bag
      &&
      (bag := remove_first r !bag;
       true)
    in
    match op with
    | "intersect" -> distinct (List.filter (fun r -> mem r b) a)
    | "except" -> distinct (List.filter (fun r -> not (mem r b)) a)
    | "intersect all" -> List.filter take a
    | _ (* except all *) -> List.filter (fun r -> not (take r)) a
  in
  let sides =
    [
      ("select dept_id from emp", 1);
      ("select owner_dept from project", 1);
      ("select manager_id from emp", 1);
      ("select lead_emp from project", 1);
      ("select dept_id, manager_id from emp", 2);
      ("select owner_dept, lead_emp from project", 2);
      ("select dept_id, manager_id from emp where emp_id > 2", 2);
    ]
  in
  List.iter
    (fun (a, arity) ->
      List.iter
        (fun (b, arity') ->
          if arity = arity' then
            List.iter
              (fun op ->
                let sql = Printf.sprintf "%s %s %s" a op b in
                if
                  not
                    (List.equal Row.equal
                       (list_setop op (rows a) (rows b))
                       (Array.to_list (Relation.rows (q (cat ()) sql))))
                then Alcotest.failf "%s differs from a list scan" sql)
              [ "intersect"; "intersect all"; "except"; "except all" ])
        sides)
    sides

let test_precedence () =
  (* INTERSECT binds tighter: A union (B intersect C) *)
  let rel =
    q (cat ())
      "select 1 as x from dept where dept_id = 1 union select 2 as x from \
       dept where dept_id = 1 intersect select 3 as x from dept where \
       dept_id = 1"
  in
  (* B∩C = ∅, so the result is just A = {1} *)
  check_rows "intersect first" [ [ Some 1 ] ] rel;
  (* parentheses override: (A union B) intersect C *)
  let rel =
    q (cat ())
      "(select 1 as x from dept where dept_id = 1 union select 2 as x from \
       dept where dept_id = 1) intersect select 2 as x from dept where \
       dept_id = 1"
  in
  check_rows "parens" [ [ Some 2 ] ] rel

let test_order_limit_hoisting () =
  let rel =
    q (cat ())
      "select ename, salary from emp where dept_id = 1 union select ename, \
       salary from emp where dept_id = 2 order by salary desc limit 2"
  in
  Alcotest.(check int) "limit applies to the union" 2
    (Relation.cardinality rel);
  let first = (Relation.rows rel).(0) in
  Alcotest.check value_testable "ordered by the union's salary" (vs "ada")
    first.(0);
  (* positional key *)
  let rel =
    q (cat ())
      "select ename from emp where dept_id = 1 union select ename from emp \
       where dept_id = 3 order by 1 desc limit 1"
  in
  let first = (Relation.rows rel).(0) in
  Alcotest.check value_testable "positional" (vs "eve") first.(0)

let test_subqueries_inside_components () =
  let cat = cat () in
  let sql =
    "select dname from dept where not exists (select * from emp where \
     emp.dept_id = dept.dept_id) union select ename from emp where salary \
     > all (select budget from dept)"
  in
  (* both components exercise the nested machinery; all strategies agree *)
  List.iter
    (fun (name, s) ->
      match Nra.query ~strategy:s cat sql with
      | Ok rel ->
          Alcotest.(check int) (name ^ " rows") 1 (Relation.cardinality rel)
      | Error m -> Alcotest.fail (name ^ ": " ^ m))
    Nra.strategies

let test_errors () =
  let expect sql =
    match Nra.query (cat ()) sql with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted: " ^ sql)
  in
  expect "select dept_id, dname from dept union select dept_id from dept";
  expect "select dept_id from dept union select dept_id from dept order by nosuch";
  expect "select dept_id from dept union select dept_id from dept order by 0";
  expect
    "select dept_id from dept union select dept_id from dept order by \
     dept_id + 1"

let test_statement_printing_roundtrip () =
  let src =
    "(select a from t) union all ((select b from u) intersect (select c \
     from v))"
  in
  let s = Sql.Parser.parse_statement src in
  let s2 = Sql.Parser.parse_statement (Sql.Ast.statement_to_string s) in
  Alcotest.(check bool) "statement roundtrip" true (s = s2)

let () =
  Alcotest.run "setops_sql"
    [
      ( "semantics",
        [
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "union all" `Quick test_union_all;
          Alcotest.test_case "intersect/except" `Quick test_intersect_except;
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "order/limit hoisting" `Quick
            test_order_limit_hoisting;
          Alcotest.test_case "nested components" `Quick
            test_subqueries_inside_components;
        ] );
      ( "structure",
        [
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "printing roundtrip" `Quick
            test_statement_printing_roundtrip;
        ] );
    ]
