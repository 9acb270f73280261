open Nra
open Test_support
module A = Planner.Analyze
module R = Planner.Resolved

let analyze cat sql =
  match A.analyze_string cat sql with
  | Ok t -> t
  | Error m -> Alcotest.fail (Printf.sprintf "analyze failed (%s): %s" sql m)

let expect_error cat needle sql =
  match A.analyze_string cat sql with
  | Error m ->
      let lower = String.lowercase_ascii m in
      let nl = String.lowercase_ascii needle in
      let contains =
        let n = String.length nl and h = String.length lower in
        let rec go i = i + n <= h && (String.sub lower i n = nl || go (i + 1)) in
        n = 0 || go 0
      in
      if not contains then
        Alcotest.fail
          (Printf.sprintf "error %S does not mention %S (query: %s)" m needle
             sql)
  | Ok _ -> Alcotest.fail ("accepted: " ^ sql)

let test_flat_query () =
  let cat = emp_dept_catalog () in
  let t = analyze cat "select ename from emp where salary > 50" in
  Alcotest.(check int) "one block" 1 (List.length t.A.blocks);
  Alcotest.(check int) "depth 0" 0 t.A.depth;
  Alcotest.(check bool) "linear trivially" true t.A.linear;
  Alcotest.(check int) "local conjunct" 1
    (List.length t.A.root.A.local)

let test_block_numbering () =
  let cat = paper_catalog () in
  let t =
    analyze cat
      {|select r.b from r
        where r.b not in (select s.e from s where r.d = s.g and s.h > all
          (select t.j from t where t.k = r.c))|}
  in
  Alcotest.(check (list int)) "pre-order ids" [ 1; 2; 3 ]
    (List.map (fun b -> b.A.id) t.A.blocks)

let test_correlation_classification () =
  let cat = emp_dept_catalog () in
  let t =
    analyze cat
      {|select dname from dept
        where exists (select * from emp
                      where emp.dept_id = dept.dept_id and salary > 50)|}
  in
  let child = (List.hd t.A.root.A.children).A.block in
  Alcotest.(check int) "one local (salary)" 1 (List.length child.A.local);
  Alcotest.(check int) "one correlated" 1 (List.length child.A.correlated);
  Alcotest.(check bool) "linear" true t.A.linear

let test_tree_query_not_linear () =
  let cat = emp_dept_catalog () in
  let t =
    analyze cat
      {|select dname from dept
        where exists (select * from emp where emp.dept_id = dept.dept_id)
          and budget > any (select hours from project
                            where project.owner_dept = dept.dept_id)|}
  in
  Alcotest.(check int) "two children" 2 (List.length t.A.root.A.children);
  Alcotest.(check bool) "tree queries are not linear" false t.A.linear;
  Alcotest.(check int) "depth 1" 1 t.A.depth

let test_nonadjacent_correlation_not_linear () =
  let cat = paper_catalog () in
  let t =
    analyze cat
      {|select r.b from r where r.b in
         (select s.e from s where r.d = s.g and exists
            (select * from t where t.k = r.c))|}
  in
  Alcotest.(check bool) "correlation skipping a level breaks linearity" false
    t.A.linear

let test_self_join_uids () =
  let cat = emp_dept_catalog () in
  let t =
    analyze cat
      {|select e1.ename from emp e1
        where e1.salary > any (select e2.salary from emp e2
                               where e2.manager_id = e1.emp_id)|}
  in
  let uids = List.map fst t.A.by_uid |> List.sort_uniq compare in
  Alcotest.(check int) "two distinct uids" 2 (List.length uids)

(* a FROM table bound under its own name is the catalog's table itself;
   only an alias requalifies (and so copies) the schema *)
let test_unaliased_binding_shares () =
  let cat = emp_dept_catalog () in
  let t = analyze cat "select ename from emp e, dept where e.dept_id = \
                       dept.dept_id" in
  let binding uid =
    match List.assoc_opt uid t.A.by_uid with
    | Some bd -> bd
    | None -> Alcotest.fail ("no binding " ^ uid)
  in
  let base name = Table.schema (Catalog.table cat name) in
  Alcotest.(check bool) "dept shares the catalog schema" true
    (Table.schema (binding "dept").A.table == base "dept");
  Alcotest.(check bool) "the alias e requalifies" false
    (Table.schema (binding "e").A.table == base "emp");
  Alcotest.(check string) "e's columns are e's" "e"
    (Schema.col (Table.schema (binding "e").A.table) 0).Schema.table

let test_same_alias_in_nested_blocks () =
  let cat = emp_dept_catalog () in
  (* both blocks bind the bare name emp; uids must disambiguate *)
  let t =
    analyze cat
      {|select ename from emp
        where salary > all (select salary - 1 from emp where emp_id = 1)|}
  in
  let uids = List.map fst t.A.by_uid in
  Alcotest.(check int) "two bindings" 2 (List.length uids);
  Alcotest.(check bool) "uids distinct" true
    (List.length (List.sort_uniq compare uids) = 2)

let test_not_normalization () =
  let cat = emp_dept_catalog () in
  (* NOT over EXISTS / IN / quantifiers must normalize into linking ops *)
  let t =
    analyze cat
      {|select ename from emp
        where not (salary in (select budget from dept))|}
  in
  (match (List.hd t.A.root.A.children).A.link with
  | A.L_not_in _ -> ()
  | _ -> Alcotest.fail "NOT (x IN S) should become NOT IN");
  let t =
    analyze cat
      {|select ename from emp
        where not (salary > all (select budget from dept))|}
  in
  match (List.hd t.A.root.A.children).A.link with
  | A.L_quant (_, Three_valued.Le, `Any) -> ()
  | _ -> Alcotest.fail "NOT (x > ALL S) should become x <= ANY S"

let test_marker_is_key () =
  let cat = emp_dept_catalog () in
  let t =
    analyze cat
      "select ename from emp where exists (select * from dept where dept.dept_id = emp.dept_id)"
  in
  let child = (List.hd t.A.root.A.children).A.block in
  Alcotest.(check string) "marker column" "dept_id"
    child.A.marker.R.col

let test_not_null_tracking () =
  let cat = emp_dept_catalog () in
  let t = analyze cat "select ename from emp" in
  let rc uid col = { R.uid; col; block_id = 1 } in
  Alcotest.(check bool) "ename is NOT NULL" true
    (A.col_not_null t (rc "emp" "ename"));
  Alcotest.(check bool) "salary is nullable" false
    (A.col_not_null t (rc "emp" "salary"));
  Alcotest.(check bool) "literal not nullable" true
    (A.expr_not_nullable t (R.RLit (vi 1)));
  Alcotest.(check bool) "null literal nullable" false
    (A.expr_not_nullable t (R.RLit vnull));
  Alcotest.(check bool) "division is nullable" false
    (A.expr_not_nullable t
       (R.RBin (Sql.Ast.Div, R.RLit (vi 1), R.RLit (vi 2))))

let test_scalar_subquery_forms () =
  let cat = emp_dept_catalog () in
  let t =
    analyze cat
      {|select ename from emp
        where salary > (select avg(salary) from emp e2
                        where e2.dept_id = emp.dept_id)|}
  in
  let child = (List.hd t.A.root.A.children).A.block in
  (match child.A.scalar_agg with
  | Some (Sql.Ast.Avg, Some _) -> ()
  | _ -> Alcotest.fail "aggregate scalar subquery not recognized");
  match (List.hd t.A.root.A.children).A.link with
  | A.L_scalar (_, Three_valued.Gt) -> ()
  | _ -> Alcotest.fail "scalar link"

(* type JA: IN / θ SOME / θ ALL over an aggregate subquery — the block
   carries [scalar_agg], has no linked attribute, and the site is never
   positive (the empty group aggregates to a value) *)
let test_ja_subquery_forms () =
  let cat = emp_dept_catalog () in
  let child_of sql =
    let t = analyze cat sql in
    List.hd t.A.root.A.children
  in
  let c =
    child_of
      {|select ename from emp
        where salary in (select max(budget) from dept
                         where dept.dept_id = emp.dept_id)|}
  in
  (match c.A.block.A.scalar_agg with
  | Some (Sql.Ast.Max, Some _) -> ()
  | _ -> Alcotest.fail "IN-aggregate subquery not recognized as JA");
  Alcotest.(check bool) "JA block has no linked attribute" true
    (c.A.block.A.linked_attr = None);
  Alcotest.(check bool) "IN over an aggregate is not a positive site"
    false (A.child_positive c);
  let c =
    child_of
      {|select ename from emp
        where salary > all (select count(*) from project
                            where project.lead_emp = emp.emp_id)|}
  in
  (match (c.A.link, c.A.block.A.scalar_agg) with
  | A.L_quant (_, Three_valued.Gt, `All), Some (Sql.Ast.Count_star, None) ->
      ()
  | _ -> Alcotest.fail "ALL-aggregate subquery not recognized as JA");
  (* the non-aggregate lookalike keeps its linked attribute and its
     positive IN site *)
  let c =
    child_of "select ename from emp where dept_id in (select dept_id from dept)"
  in
  Alcotest.(check bool) "non-aggregate IN stays positive" true
    (A.child_positive c);
  Alcotest.(check bool) "non-aggregate IN keeps linked_attr" true
    (c.A.block.A.linked_attr <> None)

(* the engine's one positivity rule: only an EXISTS, SOME or IN site is
   satisfied by non-empty groups alone, so only it may discard the outer
   tuples of empty groups (σ instead of σ̄); NOT EXISTS, ALL and NOT IN
   hold on the empty set, an aggregate of it is a value, and a scalar
   subquery over it is Unknown *)
let test_child_positivity () =
  let cat = emp_dept_catalog () in
  let positive where =
    let t = analyze cat ("select ename from emp where " ^ where) in
    A.child_positive (List.hd t.A.root.A.children)
  in
  let correlated = "from dept where dept.dept_id = emp.dept_id" in
  List.iter
    (fun (name, want, where) ->
      Alcotest.(check bool) name want (positive where))
    [
      ("exists", true, "exists (select * " ^ correlated ^ ")");
      ("not exists", false, "not exists (select * " ^ correlated ^ ")");
      ("some", true, "salary > some (select budget " ^ correlated ^ ")");
      ("in", true, "salary in (select budget " ^ correlated ^ ")");
      ("all", false, "salary > all (select budget " ^ correlated ^ ")");
      ("not in", false, "salary not in (select budget " ^ correlated ^ ")");
      ( "aggregate under SOME",
        false,
        "salary > some (select max(budget) " ^ correlated ^ ")" );
      ("scalar", false, "salary = (select budget " ^ correlated ^ ")");
    ]

let test_errors () =
  let cat = emp_dept_catalog () in
  expect_error cat "unknown table" "select * from nosuch";
  expect_error cat "unknown column" "select nocol from emp";
  expect_error cat "ambiguous" "select dept_id from emp, dept";
  expect_error cat "unknown table or alias"
    "select zz.ename from emp";
  expect_error cat "duplicate"
    "select * from emp e, dept e";
  expect_error cat "or"
    {|select * from emp
      where salary > 1 or exists (select * from dept)|};
  expect_error cat "group by"
    {|select * from emp
      where exists (select dept_id from dept group by dept_id)|};
  expect_error cat "limit"
    {|select * from emp where dept_id in (select dept_id from dept limit 1)|};
  expect_error cat "exactly one"
    "select * from emp where dept_id in (select * from dept)";
  expect_error cat "aggregate"
    "select * from emp where max(salary) > 1";
  expect_error cat "expected an identifier" "select 1 from "

let test_outer_scope_column_in_inner_select () =
  let cat = emp_dept_catalog () in
  (* the subquery selects an outer column — legal SQL *)
  let t =
    analyze cat
      {|select ename from emp
        where salary in (select emp.salary from dept
                         where dept.dept_id = emp.dept_id)|}
  in
  let child = (List.hd t.A.root.A.children).A.block in
  match child.A.linked_attr with
  | Some (R.RCol c) -> Alcotest.(check int) "resolves to outer" 1 c.R.block_id
  | _ -> Alcotest.fail "linked attr"

(* ---------- the recorded block facts ----------

   Each fact as it was computed on demand before analysis recorded it,
   from the subtree's block list; the recorded fields must agree on
   every block of every corpus query. *)

let ref_self_contained (b : A.block) =
  let ids = List.map (fun blk -> blk.A.id) (A.collect_blocks b) in
  let inside i = List.mem i ids in
  let expr_ok e = List.for_all inside (R.expr_blocks e) in
  let block_ok ~own (blk : A.block) =
    (own
    || List.for_all
         (fun rc -> List.for_all inside (R.cond_blocks rc))
         blk.A.correlated)
    && (match blk.A.linked_attr with None -> true | Some e -> expr_ok e)
    && match blk.A.scalar_agg with Some (_, Some e) -> expr_ok e | _ -> true
  in
  block_ok ~own:true b
  && List.for_all (block_ok ~own:false) (List.tl (A.collect_blocks b))

let ref_static (b : A.block) =
  let ids = List.map (fun blk -> blk.A.id) (A.collect_blocks b) in
  let expr_ok e = List.for_all (fun i -> List.mem i ids) (R.expr_blocks e) in
  List.for_all
    (fun (blk : A.block) ->
      blk.A.correlated = []
      && (match blk.A.linked_attr with None -> true | Some e -> expr_ok e)
      && match blk.A.scalar_agg with Some (_, Some e) -> expr_ok e | _ -> true)
    (A.collect_blocks b)

let ref_reducible ~parent_id (b : A.block) =
  let ok_cond ~self ~allowed rc =
    List.for_all (fun i -> i = self || List.mem i allowed) (R.cond_blocks rc)
  in
  let rec go (blk : A.block) ~parent =
    List.for_all (ok_cond ~self:blk.A.id ~allowed:[ parent ]) blk.A.correlated
    && (match blk.A.linked_attr with
       | None -> true
       | Some e -> List.for_all (fun i -> i = blk.A.id) (R.expr_blocks e))
    && List.for_all (fun c -> go c.A.block ~parent:blk.A.id) blk.A.children
  in
  go b ~parent:parent_id

let ref_equi (b : A.block) =
  let inner (c : R.rcol) e =
    c.R.block_id = b.A.id && not (List.mem b.A.id (R.expr_blocks e))
  in
  List.filter_map
    (function
      | R.RCmp (Three_valued.Eq, R.RCol c, e) when inner c e -> Some (c, e)
      | R.RCmp (Three_valued.Eq, e, R.RCol c) when inner c e -> Some (c, e)
      | _ -> None)
    b.A.correlated

let check_facts sql (t : A.t) =
  let rec walk (b : A.block) =
    List.iter
      (fun (c : A.child) ->
        let k = c.A.block in
        let name fact = Printf.sprintf "%s: block %d %s" sql k.A.id fact in
        Alcotest.(check bool) (name "self_contained") (ref_self_contained k)
          k.A.self_contained;
        Alcotest.(check bool) (name "static") (ref_static k) k.A.static;
        Alcotest.(check bool) (name "reducible")
          (ref_reducible ~parent_id:b.A.id k)
          k.A.reducible;
        let pairs = ref_equi k in
        Alcotest.(check bool) (name "equi") true (k.A.equi = pairs);
        Alcotest.(check bool) (name "equi_correlation") true
          (k.A.equi_correlation
          = if pairs <> [] && List.length pairs = List.length k.A.correlated
            then Some pairs
            else None);
        walk k)
      b.A.children
  in
  walk t.A.root

let test_recorded_facts () =
  let emp = emp_dept_catalog () and paper = paper_catalog () in
  List.iter (fun sql -> check_facts sql (analyze emp sql)) subquery_corpus;
  List.iter
    (fun sql -> check_facts sql (analyze paper sql))
    [
      (* non-adjacent correlation, a tree, a linked attribute reading
         the parent, and a constant EXISTS whose block is numbered but
         dropped *)
      {|select r.b from r
        where r.b not in (select s.e from s where r.d = s.g and s.h > all
          (select t.j from t where t.k = r.c))|};
      {|select r.b from r
        where exists (select * from s where s.g = r.d)
          and r.c in (select t.j from t where t.k > 2)|};
      {|select r.b from r
        where r.b in (select r.c from s where s.g = r.d)|};
      {|select r.b from r
        where exists (select count( * ) from s where s.g = r.d)
          and not exists (select * from t where t.k = r.c
            and t.j in (select s.e from s where s.h = t.k and s.g = r.d))|};
      {|select r.b from r
        where r.c = (select max(t.j) from t where t.k = r.b)
          and exists (select * from s where s.e > 1
            and exists (select * from t where t.j = s.h))|};
    ];
  let tpch = Tpch.Gen.generate { Tpch.Gen.default with scale = 0.002 } in
  List.iter (fun sql -> check_facts sql (analyze tpch sql)) tpch_plan_corpus

let () =
  Alcotest.run "analyze"
    [
      ( "blocks",
        [
          Alcotest.test_case "flat" `Quick test_flat_query;
          Alcotest.test_case "numbering" `Quick test_block_numbering;
          Alcotest.test_case "correlation" `Quick
            test_correlation_classification;
          Alcotest.test_case "tree query" `Quick test_tree_query_not_linear;
          Alcotest.test_case "non-adjacent correlation" `Quick
            test_nonadjacent_correlation_not_linear;
          Alcotest.test_case "marker" `Quick test_marker_is_key;
          Alcotest.test_case "positivity" `Quick test_child_positivity;
        ] );
      ( "resolution",
        [
          Alcotest.test_case "self join uids" `Quick test_self_join_uids;
          Alcotest.test_case "unaliased binding shares its table" `Quick
            test_unaliased_binding_shares;
          Alcotest.test_case "same alias nested" `Quick
            test_same_alias_in_nested_blocks;
          Alcotest.test_case "outer column in inner select" `Quick
            test_outer_scope_column_in_inner_select;
          Alcotest.test_case "NOT NULL tracking" `Quick test_not_null_tracking;
        ] );
      ( "normalization",
        [
          Alcotest.test_case "NOT pushing" `Quick test_not_normalization;
          Alcotest.test_case "scalar subqueries" `Quick
            test_scalar_subquery_forms;
          Alcotest.test_case "JA subqueries" `Quick test_ja_subquery_forms;
        ] );
      ("errors", [ Alcotest.test_case "all rejected" `Quick test_errors ]);
      ( "facts",
        [
          Alcotest.test_case "recorded = recomputed" `Quick
            test_recorded_facts;
        ] );
    ]
