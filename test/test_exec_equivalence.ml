(* Cross-executor equivalence: nested iteration (the semantic reference),
   classical unnesting, and the three nested-relational configurations
   must agree on every query — on a hand-written corpus covering every
   linking operator and correlation shape, and on randomized queries
   over randomized NULL-rich data. *)

open Nra
open Test_support

(* the hand-written corpus lives in Test_support.subquery_corpus: the
   scheduler suite replays the same queries under randomized
   interleavings *)
let corpus_emp_dept = subquery_corpus

let test_corpus () =
  let cat = emp_dept_catalog () in
  List.iter (fun sql -> ignore (check_equivalent cat sql)) corpus_emp_dept

(* the auto strategy may pick any executor, but whatever it picks must
   return exactly the nra-optimized relation — with and without
   statistics in place (the choice can differ between the two; the
   result cannot) *)
let test_auto_matches_optimized () =
  let check cat sql =
    match
      ( Nra.query ~strategy:Auto cat sql,
        Nra.query ~strategy:Nra_optimized cat sql )
    with
    | Ok a, Ok b ->
        if Relation.sorted_rows a <> Relation.sorted_rows b then
          Alcotest.fail ("auto disagrees with nra-optimized on: " ^ sql)
    | Error m, _ | _, Error m -> Alcotest.fail (sql ^ ": " ^ m)
  in
  let cold = emp_dept_catalog () in
  List.iter (check cold) corpus_emp_dept;
  let warm = emp_dept_catalog () in
  (match Nra.exec warm "analyze" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  List.iter (check warm) corpus_emp_dept

let test_corpus_against_hand_results () =
  let cat = emp_dept_catalog () in
  (* a few fully hand-derived answers to anchor the corpus *)
  let rel =
    check_equivalent cat
      "select dname from dept where not exists (select * from emp where \
       emp.dept_id = dept.dept_id)"
  in
  Alcotest.(check (list (list string)))
    "only the empty department" [ [ "'empty'" ] ]
    (List.map
       (fun row -> [ Value.to_string row.(0) ])
       (Relation.sorted_rows rel));
  let rel =
    check_equivalent cat
      "select ename from emp where salary >= all (select e2.salary from emp \
       e2 where e2.dept_id = emp.dept_id)"
  in
  (* per department maxima: eng→ada(90); sales→cyd(70) but dan's NULL
     salary makes the comparison for cyd… cyd: 70 >= all {70, null} is
     unknown → out; dan: null >= … unknown → out; hr→eve(80) vacuous
     group of one; fay's dept is NULL: her group is empty (no emp has
     dept_id = NULL) → vacuously true *)
  Alcotest.(check (list (list string)))
    "department maxima under NULLs"
    [ [ "'ada'" ]; [ "'eve'" ]; [ "'fay'" ] ]
    (List.map
       (fun row -> [ Value.to_string row.(0) ])
       (Relation.sorted_rows rel))

let test_randomized () =
  let rng = Tpch.Prng.create 0xFEEDL in
  for _round = 1 to 150 do
    let cat =
      Random_sql.catalog rng
        { null_rate = 0.25; rows_r = 12; rows_s = 14; rows_t = 10 }
    in
    let sql = Random_sql.query rng in
    ignore (check_equivalent ~reference:true cat sql)
  done

let test_randomized_no_nulls () =
  let rng = Tpch.Prng.create 0xBEEFL in
  for _round = 1 to 50 do
    let cat =
      Random_sql.catalog rng
        { null_rate = 0.0; rows_r = 10; rows_s = 12; rows_t = 8 }
    in
    let sql = Random_sql.query rng in
    ignore (check_equivalent ~reference:true cat sql)
  done

(* the generator's shapes at 30 % NULLs on smaller tables, many more
   of them, every strategy against the reference evaluator: a third of
   the three-block queries correlate the inner block to rr, past ss,
   which is the non-leaf site shape a pipelined plan keeps as position
   pairs *)
let test_randomized_reference () =
  let rng = Tpch.Prng.create 0xC0FFEEL in
  for _round = 1 to 3000 do
    let cat =
      Random_sql.catalog rng
        { null_rate = 0.3; rows_r = 6; rows_s = 7; rows_t = 5 }
    in
    let sql = Random_sql.query rng in
    ignore (check_equivalent ~reference:true cat sql)
  done

let test_empty_tables () =
  let rng = Tpch.Prng.create 1L in
  let cat =
    Random_sql.catalog rng
      { null_rate = 0.3; rows_r = 5; rows_s = 0; rows_t = 0 }
  in
  List.iter
    (fun sql -> ignore (check_equivalent cat sql))
    [
      "select rid from rr where exists (select * from ss)";
      "select rid from rr where not exists (select * from ss)";
      "select rid from rr where a in (select c from ss)";
      "select rid from rr where a not in (select c from ss)";
      "select rid from rr where a > all (select c from ss where ss.rref = \
       rr.rid)";
      "select rid from rr where a > any (select c from ss where ss.rref = \
       rr.rid)";
    ]

let test_naive_without_indexes () =
  (* the index path and the rescan path must agree; use data with
     secondary indexes so the index path actually fires *)
  let cat =
    Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.002 }
  in
  Tpch.Gen.add_benchmark_indexes cat;
  let sqls =
    [
      "select o_orderkey from orders where o_orderkey < 50 and o_totalprice \
       > all (select l_extendedprice from lineitem where l_orderkey = \
       o_orderkey)";
      "select p_partkey from part where p_partkey < 40 and p_retailprice < \
       any (select ps_supplycost from partsupp where ps_partkey = \
       p_partkey)";
    ]
  in
  List.iter
    (fun sql ->
      match Planner.Analyze.analyze_string cat sql with
      | Error m -> Alcotest.fail m
      | Ok t ->
          let with_idx = Exec.Naive.run ~use_indexes:true cat t in
          let probes_with = Exec.Naive.stats.Exec.Naive.index_probes in
          let without = Exec.Naive.run ~use_indexes:false cat t in
          let probes_without = Exec.Naive.stats.Exec.Naive.index_probes in
          Alcotest.(check bool) "index path fired" true (probes_with > 0);
          Alcotest.(check int) "scan path avoids probes" 0 probes_without;
          Alcotest.(check bool) "same result" true
            (Relation.equal_bag with_idx without))
    sqls

let test_empty_outer () =
  let rng = Tpch.Prng.create 2L in
  let cat =
    Random_sql.catalog rng
      { null_rate = 0.3; rows_r = 0; rows_s = 5; rows_t = 5 }
  in
  let rel =
    check_equivalent cat
      "select rid from rr where a in (select c from ss where ss.rref = rr.rid)"
  in
  Alcotest.(check int) "empty outer" 0 (Relation.cardinality rel)

let () =
  Alcotest.run "exec_equivalence"
    [
      ( "corpus",
        [
          Alcotest.test_case "all strategies agree" `Quick test_corpus;
          Alcotest.test_case "auto returns the nra-optimized relation"
            `Quick test_auto_matches_optimized;
          Alcotest.test_case "anchored results" `Quick
            test_corpus_against_hand_results;
        ] );
      ( "randomized",
        [
          Alcotest.test_case "150 random queries with NULLs" `Slow
            test_randomized;
          Alcotest.test_case "50 random queries without NULLs" `Slow
            test_randomized_no_nulls;
          Alcotest.test_case "3000 random queries against the reference"
            `Slow test_randomized_reference;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "empty inner tables" `Quick test_empty_tables;
          Alcotest.test_case "empty outer table" `Quick test_empty_outer;
          Alcotest.test_case "naive with vs without indexes" `Quick
            test_naive_without_indexes;
        ] );
    ]
