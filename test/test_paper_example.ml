(* The paper's running example, end to end.

   Section 2 introduces Query Q over R(A,B,C,D), S(E,F,G,H,I), T(J,K,L);
   Section 3 (Example 1) computes Temp1..Temp4 with the extended nested
   algebra; Section 4 (Example 2) processes the whole query.  These
   tests rebuild each intermediate with the library's operators (the
   Temp3/Temp4 selections are the loop every materialized NRA site
   runs) and check the hand-derived contents, then run Query Q through
   every executor and the reference evaluator. *)

open Nra
open Test_support
module J = Algebra.Join
module G = Nested.Grouped
module LP = Nested.Link_pred
module T3 = Three_valued

let query_q =
  {|select r.b, r.c, r.d
    from r
    where r.a > 10 and r.b not in
      (select s.e from s
       where s.f = 5 and r.d = s.g and s.h > all
         (select t.j from t where t.k = r.c and t.l <> s.i))|}

(* Temp1 = π_{B,C,D,E,H,I,J,L}((R ⟕_{R.D=S.G} S) ⟕_{T.K=R.C ∧ T.L<>S.I} T) *)
let temp1 () =
  let r = Table.relation (paper_r ()) in
  let s = Table.relation (paper_s ()) in
  let t = Table.relation (paper_t ()) in
  let rs_schema = Schema.append (Relation.schema r) (Relation.schema s) in
  let d = Schema.find rs_schema ~table:"r" "d"
  and g = Schema.find rs_schema ~table:"s" "g" in
  let rs =
    J.join J.Left_outer
      ~on:(Expr.Cmp (T3.Eq, Expr.Col d, Expr.Col g))
      r s
  in
  let rst_schema = Schema.append (Relation.schema rs) (Relation.schema t) in
  let k = Schema.find rst_schema ~table:"t" "k"
  and c = Schema.find rst_schema ~table:"r" "c"
  and l = Schema.find rst_schema ~table:"t" "l"
  and i = Schema.find rst_schema ~table:"s" "i" in
  let rst =
    J.join J.Left_outer
      ~on:
        (Expr.And
           ( Expr.Cmp (T3.Eq, Expr.Col k, Expr.Col c),
             Expr.Cmp (T3.Neq, Expr.Col l, Expr.Col i) ))
      rs t
  in
  let pick names =
    List.map
      (fun (tbl, n) -> Schema.find (Relation.schema rst) ~table:tbl n)
      names
  in
  Algebra.Basic.project_cols
    (pick
       [
         ("r", "b"); ("r", "c"); ("r", "d"); ("s", "e"); ("s", "h");
         ("s", "i"); ("t", "j"); ("t", "l");
       ])
    rst

let find8 rel tbl n = Schema.find (Relation.schema rel) ~table:tbl n

let temp2 () =
  let t1 = temp1 () in
  let p tbl n = find8 t1 tbl n in
  G.nest_sort
    ~by:
      [|
        p "r" "b"; p "r" "c"; p "r" "d"; p "s" "e"; p "s" "h"; p "s" "i";
      |]
    ~keep:[| p "t" "j"; p "t" "l" |]
    t1

(* In Temp2's element frame, T.J is column 0 and T.L (the marker) 1. *)
let all_pred t2 =
  let h = Schema.find t2.G.key_schema ~table:"s" "h" in
  LP.Quant (Expr.Col h, T3.Gt, LP.All, 0)

let test_base_relations () =
  Alcotest.(check int) "R rows" 3 (Table.cardinality (paper_r ()));
  Alcotest.(check int) "S rows" 3 (Table.cardinality (paper_s ()));
  Alcotest.(check int) "T rows" 3 (Table.cardinality (paper_t ()))

let test_temp1 () =
  let t1 = temp1 () in
  (* r1 (D=3) matches s1,s2 on G=3; each S row then left-joins T rows
     with K=C(2), L<>I.  r2 (D=5) matches s3 (G=5), no T with K=3.
     r3 (D=4) matches no S, no T with K=5. *)
  check_rows "temp1"
    [
      (* B C D E H I J L, sorted; NULLs first *)
      [ None; Some 5; Some 4; None; None; None; None; None ];
      [ Some 1; Some 2; Some 3; Some 1; Some 8; Some 1; Some 9; Some 3 ];
      [ Some 1; Some 2; Some 3; Some 2; Some 9; Some 2; Some 7; Some 1 ];
      [ Some 1; Some 2; Some 3; Some 2; Some 9; Some 2; Some 9; Some 3 ];
      [ Some 2; Some 3; Some 5; Some 3; None; Some 4; None; None ];
    ]
    t1

let test_temp2 () =
  let t2 = temp2 () in
  Alcotest.(check int) "four groups" 4 (group_count t2);
  (* the group of (1,2,3,s2) holds two T elements *)
  let counts =
    Array.to_list t2.G.groups
    |> List.map (fun (_, elems) -> Array.length elems)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "group sizes" [ 1; 1; 1; 2 ] counts

let test_temp3_padded_selection () =
  let t2 = temp2 () in
  let pad =
    Array.of_list
      (List.map
         (fun n -> Schema.find t2.G.key_schema ~table:"s" n)
         [ "e"; "h"; "i" ])
  in
  let marker = Some (Schema.find t2.G.elem_schema ~table:"t" "l") in
  let t3 = G.select (G.Pad pad) (all_pred t2) ~marker t2 in
  (* Both S tuples joined to r1 fail S.H > ALL {T.J} (8>9 and 9>9 are
     false) and get their S attributes padded; the S tuple under r2 has
     an empty T set, so ALL holds vacuously (even though S.H is NULL);
     the padded R row r3 has an empty set too. *)
  check_rows "temp3"
    [
      [ None; Some 5; Some 4; None; None; None ];
      [ Some 1; Some 2; Some 3; None; None; None ];
      [ Some 1; Some 2; Some 3; None; None; None ];
      [ Some 2; Some 3; Some 5; Some 3; None; Some 4 ];
    ]
    t3

let test_temp4_selection () =
  let t2 = temp2 () in
  let marker = Some (Schema.find t2.G.elem_schema ~table:"t" "l") in
  let t4 = G.select G.Discard (all_pred t2) ~marker t2 in
  (* σ discards the two failing tuples instead of padding *)
  check_rows "temp4"
    [
      [ None; Some 5; Some 4; None; None; None ];
      [ Some 2; Some 3; Some 5; Some 3; None; Some 4 ];
    ]
    t4

let test_query_q_result () =
  let cat = paper_catalog () in
  let rel = check_equivalent cat query_q in
  (* hand derivation: r1 qualifies because both S candidates fail the
     inner ALL (NOT IN ∅ is true); r2 qualifies because its single S
     candidate passes ALL vacuously and 2 <> 3; r3 fails R.A > 10 *)
  check_rows "query Q" [ [ Some 1; Some 2; Some 3 ]; [ Some 2; Some 3; Some 5 ] ] rel

(* Every strategy's rows equal the reference evaluator's, which shares
   no code with the engine: the check of Query Q's two nesting levels
   (the inner σ̄ at depth 1, the outer NOT IN at the top) against an
   independent semantics, not only against each other. *)
let test_query_q_reference () =
  let cat = paper_catalog () in
  let expected =
    match Reference_eval.sorted_csv cat query_q with
    | Ok csv -> csv
    | Error m -> Alcotest.fail ("reference evaluator: " ^ m)
  in
  Alcotest.(check string) "reference = hand derivation" "1,2,3\n2,3,5"
    expected;
  List.iter
    (fun (name, res) ->
      match res with
      | Error m -> Alcotest.fail (Printf.sprintf "%s failed: %s" name m)
      | Ok rel ->
          Alcotest.(check string)
            name expected
            (Reference_eval.relation_csv rel))
    (run_all cat query_q)

let test_query_q_tree () =
  let cat = paper_catalog () in
  match Planner.Analyze.analyze_string cat query_q with
  | Error m -> Alcotest.fail m
  | Ok t ->
      Alcotest.(check int) "depth" 2 t.Planner.Analyze.depth;
      Alcotest.(check bool) "not linear (T correlates to R and S)" false
        t.Planner.Analyze.linear;
      Alcotest.(check int) "three blocks" 3
        (List.length t.Planner.Analyze.blocks);
      let b2 = List.nth t.Planner.Analyze.blocks 1 in
      Alcotest.(check int) "S block: one local conjunct (s.f = 5)" 1
        (List.length b2.Planner.Analyze.local);
      Alcotest.(check int) "S block: one correlated conjunct (r.d = s.g)" 1
        (List.length b2.Planner.Analyze.correlated);
      let b3 = List.nth t.Planner.Analyze.blocks 2 in
      Alcotest.(check int) "T block: two correlated conjuncts" 2
        (List.length b3.Planner.Analyze.correlated)

let () =
  Alcotest.run "paper_example"
    [
      ( "figures",
        [
          Alcotest.test_case "base relations" `Quick test_base_relations;
          Alcotest.test_case "Temp1 (outer joins)" `Quick test_temp1;
          Alcotest.test_case "Temp2 (nest)" `Quick test_temp2;
          Alcotest.test_case "Temp3 (pseudo-selection)" `Quick
            test_temp3_padded_selection;
          Alcotest.test_case "Temp4 (selection)" `Quick test_temp4_selection;
        ] );
      ( "query Q",
        [
          Alcotest.test_case "result across executors" `Quick
            test_query_q_result;
          Alcotest.test_case "result = reference evaluator" `Quick
            test_query_q_reference;
          Alcotest.test_case "tree expression" `Quick test_query_q_tree;
        ] );
    ]
