open Nra
open Test_support
module N = Nested.Nested_relation
module G = Nested.Grouped
module LP = Nested.Link_pred
module L = Nested.Linking
module T = Three_valued

let schema =
  Schema.of_columns
    [
      Schema.column ~table:"x" "g" Ttype.Int;
      Schema.column ~table:"x" "v" Ttype.Int;
      Schema.column ~table:"x" "k" Ttype.Int;
    ]

let flat rows =
  Relation.make schema
    (Array.of_list (List.map (fun (g, v, k) -> [| g; v; k |]) rows))

let sample () =
  flat
    [
      (vi 1, vi 10, vi 1);
      (vi 1, vi 20, vi 2);
      (vi 2, vi 30, vi 3);
      (vnull, vi 40, vi 4);
      (vnull, vi 50, vi 5);
      (vi 3, vnull, vnull); (* a padded (empty-group) tuple *)
    ]

(* ---------- general model ---------- *)

let test_depth () =
  let n = N.of_flat (sample ()) in
  Alcotest.(check int) "flat depth 0" 0 (N.depth n.N.sch);
  let n1 = N.nest ~by:[ 0 ] ~keep:[ 1; 2 ] n in
  Alcotest.(check int) "one nest" 1 (N.depth n1.N.sch)

let test_nest_groups_nulls () =
  let n = N.nest ~by:[ 0 ] ~keep:[ 1; 2 ] (N.of_flat (sample ())) in
  (* groups: 1, 2, NULL, 3 — NULL keys group together like GROUP BY *)
  Alcotest.(check int) "groups" 4 (List.length n.N.tuples)

let test_nest_errors () =
  let n = N.of_flat (sample ()) in
  (match N.nest ~by:[ 0 ] ~keep:[ 0; 1 ] n with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted overlapping by/keep");
  match N.nest ~by:[ 9 ] ~keep:[] n with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted out-of-range position"

let test_unnest_inverse () =
  let r = flat [ (vi 1, vi 10, vi 1); (vi 1, vi 20, vi 2); (vi 2, vi 30, vi 3) ] in
  let n = N.nest ~by:[ 0 ] ~keep:[ 1; 2 ] (N.of_flat r) in
  let u = N.unnest ~sub:0 n in
  Alcotest.(check bool) "unnest . nest = id (non-empty groups)" true
    (Relation.equal_bag r (N.to_flat u))

let test_unnest_drops_empty () =
  let n = N.nest ~by:[ 0 ] ~keep:[ 1; 2 ] (N.of_flat (sample ())) in
  (* remove the elements of one group by selecting with an impossible
     predicate… simpler: build a nested tuple with an empty set *)
  let emptied =
    {
      n with
      N.tuples =
        List.map
          (fun (tp : N.tuple) ->
            if Row.equal tp.N.avals [| vi 2 |] then
              {
                tp with
                N.svals =
                  [| { (tp.N.svals.(0)) with N.tuples = [] } |];
              }
            else tp)
          n.N.tuples;
    }
  in
  let u = N.unnest ~sub:0 emptied in
  Alcotest.(check int) "group 2 vanished" 5 (List.length u.N.tuples)

let test_equal_set_semantics () =
  let a = N.of_flat (flat [ (vi 1, vi 2, vi 3); (vi 1, vi 2, vi 3) ]) in
  let b = N.of_flat (flat [ (vi 1, vi 2, vi 3) ]) in
  Alcotest.(check bool) "duplicate tuples equal as sets" true (N.equal a b)

(* ---------- grouped representation ---------- *)

let test_grouped_unnest () =
  let r = sample () in
  let g = G.nest_sort ~by:[| 0 |] ~keep:[| 1; 2 |] r in
  Alcotest.(check bool) "unnest restores rows" true
    (Relation.equal_bag r (G.unnest g))

let test_grouped_to_nested () =
  let r = sample () in
  let g = G.nest_sort ~by:[| 0 |] ~keep:[| 1; 2 |] r in
  let n = G.to_nested g in
  Alcotest.(check int) "same groups in general model" 4
    (List.length n.N.tuples)

(* ---------- linking predicates ---------- *)

let test_quantifier_semantics () =
  let eval q op x elems =
    LP.eval (LP.Quant (Expr.Const x, op, q, 0)) ~outer:[||]
      ~elems:(List.map (fun v -> [| v |]) elems)
  in
  (* the motivating example of Section 2: 5 > ALL {2,3,4,null} *)
  Alcotest.check t3 "5 > ALL {2,3,4,null} is unknown" T.Unknown
    (eval LP.All T.Gt (vi 5) [ vi 2; vi 3; vi 4; vnull ]);
  Alcotest.check t3 "5 > ALL {2,3,4}" T.True
    (eval LP.All T.Gt (vi 5) [ vi 2; vi 3; vi 4 ]);
  Alcotest.check t3 "ALL over empty" T.True (eval LP.All T.Gt (vi 5) []);
  Alcotest.check t3 "SOME over empty" T.False (eval LP.Some_ T.Gt (vi 5) []);
  Alcotest.check t3 "5 > SOME {9,null}" T.Unknown
    (eval LP.Some_ T.Gt (vi 5) [ vi 9; vnull ]);
  Alcotest.check t3 "5 > SOME {1,null}" T.True
    (eval LP.Some_ T.Gt (vi 5) [ vi 1; vnull ]);
  Alcotest.check t3 "null lhs with non-empty set" T.Unknown
    (eval LP.All T.Eq vnull [ vi 1 ]);
  Alcotest.check t3 "exists" T.True
    (LP.eval LP.Non_empty ~outer:[||] ~elems:[ [| vi 1 |] ]);
  Alcotest.check t3 "not exists" T.True
    (LP.eval LP.Is_empty ~outer:[||] ~elems:[])

(* the scalar case: no element is Unknown, one is a comparison, a
   second raises the same error text every executor reports *)
let test_scalar_link () =
  let pred = LP.Scalar (Expr.Col 0, T.Eq, 0) in
  let eval x elems =
    LP.eval pred ~outer:[| x |] ~elems:(List.map (fun v -> [| v |]) elems)
  in
  Alcotest.check t3 "no row is unknown" T.Unknown (eval (vi 5) []);
  Alcotest.check t3 "5 = (5)" T.True (eval (vi 5) [ vi 5 ]);
  Alcotest.check t3 "5 = (4)" T.False (eval (vi 5) [ vi 4 ]);
  Alcotest.check t3 "5 = (null)" T.Unknown (eval (vi 5) [ vnull ]);
  Alcotest.check t3 "null = (5)" T.Unknown (eval vnull [ vi 5 ]);
  Alcotest.check_raises "two rows"
    (Failure "scalar subquery returned more than one row") (fun () ->
      ignore (eval (vi 5) [ vi 5; vi 6 ]));
  Alcotest.(check bool) "not positive" false (LP.is_positive pred);
  (* the fold never reports a scalar verdict decided: a second element
     must still be seen *)
  let f = LP.fold pred in
  LP.start f ~outer:[| vi 5 |];
  LP.step f (vi 5);
  Alcotest.(check bool) "undecided after one row" false (LP.decided f);
  Alcotest.check t3 "verdict after one row" T.True (LP.finish f)

(* the fold is restartable and equals [eval] on every group; an
   aggregate steps in element order, and an outer-free predicate decides
   one stepped set against many outer tuples *)
let test_fold_reuse () =
  let sum = LP.Agg (Expr.Col 0, T.Eq, Algebra.Aggregate.Sum (Expr.Col 0)) in
  let f = LP.fold sum in
  let run outer elems =
    LP.start f ~outer;
    List.iter (fun v -> LP.step f v) elems;
    LP.finish f
  in
  Alcotest.check t3 "1 + 1e16 - 1e16 = 0 in element order" T.True
    (run [| vf 0.0 |] [ vf 1.0; vf 1e16; vf (-1e16) ]);
  Alcotest.check t3 "reversed, the sum is 1" T.True
    (run [| vf 1.0 |] [ vf (-1e16); vf 1e16; vf 1.0 ]);
  Alcotest.check t3 "restarted: SUM of the empty set is NULL" T.Unknown
    (run [| vf 0.0 |] []);
  Alcotest.check t3 "all-NULL group: SUM is NULL" T.Unknown
    (run [| vf 0.0 |] [ vnull; vnull ]);
  let count =
    LP.Agg (Expr.Col 0, T.Eq, Algebra.Aggregate.Count (Expr.Col 0))
  in
  Alcotest.(check bool)
    "aggregates are outer-free" true (LP.outer_free count);
  Alcotest.(check bool) "quantifiers are not" false
    (LP.outer_free (LP.Quant (Expr.Col 0, T.Eq, LP.Some_, 0)));
  let g = LP.fold count in
  LP.clear g;
  List.iter (LP.step g) [ vi 7; vnull; vi 8 ];
  Alcotest.check t3 "2 = COUNT {7, null, 8}" T.True
    (LP.verdict g ~outer:[| vi 2 |]);
  Alcotest.check t3 "3 <> COUNT {7, null, 8}" T.False
    (LP.verdict g ~outer:[| vi 3 |]);
  let some = LP.Quant (Expr.Col 0, T.Lt, LP.Some_, 0) in
  let q = LP.fold some in
  LP.start q ~outer:[| vi 1 |];
  LP.step q vnull;
  Alcotest.(check bool) "SOME undecided on unknown" false (LP.decided q);
  LP.step q (vi 3);
  Alcotest.(check bool) "SOME decided on true" true (LP.decided q);
  Alcotest.check t3 "1 < SOME {null, 3}" T.True (LP.finish q)

let test_marker_filter () =
  let elems = [ [| vi 1; vi 9 |]; [| vi 2; vnull |] ] in
  Alcotest.(check int) "marker drops padded" 1
    (List.length (LP.filter_marker ~marker:(Some 1) elems));
  Alcotest.(check int) "no marker keeps all" 2
    (List.length (LP.filter_marker ~marker:None elems))

let test_is_positive () =
  Alcotest.(check bool) "exists" true (LP.is_positive LP.Non_empty);
  Alcotest.(check bool) "not exists" false (LP.is_positive LP.Is_empty);
  Alcotest.(check bool) "some" true
    (LP.is_positive (LP.Quant (Expr.Col 0, T.Eq, LP.Some_, 0)));
  Alcotest.(check bool) "all" false
    (LP.is_positive (LP.Quant (Expr.Col 0, T.Eq, LP.All, 0)))

let test_grouped_select () =
  let r = sample () in
  let g = G.nest_sort ~by:[| 0 |] ~keep:[| 1; 2 |] r in
  (* keep groups where 15 < SOME {v}; the padded group (g=3) has marker
     NULL so its set is empty *)
  let pred = LP.Quant (Expr.Const (vi 15), T.Lt, LP.Some_, 0) in
  let sel = G.select pred ~marker:(Some 1) g in
  check_rows "select keys" [ [ None ]; [ Some 1 ]; [ Some 2 ] ] sel;
  let psel = G.pseudo_select pred ~marker:(Some 1) ~pad:[| 0 |] g in
  (* every group survives; the failing one (g=3) is padded *)
  Alcotest.(check int) "pseudo keeps all" 4 (Relation.cardinality psel)

let test_linking_on_general_model () =
  let r = sample () in
  let g = G.nest_sort ~by:[| 0 |] ~keep:[| 1; 2 |] r in
  let n = G.to_nested g in
  let pred = LP.Quant (Expr.Const (vi 15), T.Lt, LP.Some_, 0) in
  let sel = L.select pred ~sub:0 ~marker:(Some 1) n in
  Alcotest.(check int) "general-model select agrees" 3
    (List.length sel.N.tuples);
  let psel = L.pseudo_select pred ~sub:0 ~marker:(Some 1) ~pad:[ 0 ] n in
  Alcotest.(check int) "general-model pseudo keeps all" 4
    (List.length psel.N.tuples);
  let dropped = L.drop_sub ~sub:0 psel in
  Alcotest.(check int) "drop_sub flattens schema" 0
    (Array.length dropped.N.sch.N.subs)

let flat_wide rows =
  let col name = Schema.column ~table:"w" name Ttype.Int in
  Relation.make
    (Schema.of_columns
       (List.map col [ "b"; "c"; "d"; "e"; "h"; "i"; "j"; "l" ]))
    (Array.of_list
       (List.map
          (fun r ->
            Array.of_list
              (List.map (function Some i -> vi i | None -> vnull) r))
          rows))

(* Definition 4's multi-level case: linking attributes at depths d and
   d+1, computed with select_at after two consecutive nests (§4.2.1) —
   the whole of the paper's Query Q inside the general model. *)
let test_deep_linking_query_q () =
  (* Temp1 columns: B C D E H I J L *)
  let temp1 =
    flat_wide
      [
        [ Some 1; Some 2; Some 3; Some 1; Some 8; Some 1; Some 9; Some 3 ];
        [ Some 1; Some 2; Some 3; Some 2; Some 9; Some 2; Some 7; Some 1 ];
        [ Some 1; Some 2; Some 3; Some 2; Some 9; Some 2; Some 9; Some 3 ];
        [ Some 2; Some 3; Some 5; Some 3; None; Some 4; None; None ];
      ]
  in
  let n = N.of_flat temp1 in
  let two_level =
    N.nest ~name:"ss" ~by:[ 0; 1; 2 ] ~keep:[ 3; 4; 5 ]
      (N.nest ~name:"ts" ~by:[ 0; 1; 2; 3; 4; 5 ] ~keep:[ 6; 7 ] n)
  in
  Alcotest.(check int) "depth 2" 2 (N.depth two_level.N.sch);
  (* inner predicate S.H > ALL {T.J}, marker T.L, at depth 1 *)
  let inner = LP.Quant (Expr.Col 1, T.Gt, LP.All, 0) in
  let after_inner =
    L.pseudo_select_at ~path:[ 0 ] inner ~sub:0 ~marker:(Some 1)
      ~pad:[ 0; 1; 2 ] two_level
  in
  (* outer predicate R.B <> ALL {S.E} (NOT IN), marker S.I, at the top *)
  let outer = LP.Quant (Expr.Col 0, T.Neq, LP.All, 0) in
  let final = L.select outer ~sub:0 ~marker:(Some 2) after_inner in
  let atoms =
    List.map (fun (tp : N.tuple) -> tp.N.avals) final.N.tuples
    |> List.sort Row.compare
  in
  Alcotest.(check int) "both R tuples qualify" 2 (List.length atoms);
  Alcotest.(check bool) "(1,2,3)" true
    (Row.equal (List.nth atoms 0) [| vi 1; vi 2; vi 3 |]);
  Alcotest.(check bool) "(2,3,5)" true
    (Row.equal (List.nth atoms 1) [| vi 2; vi 3; vi 5 |])

let test_at_depth_errors () =
  let r = sample () in
  let n = N.nest ~by:[ 0 ] ~keep:[ 1; 2 ] (N.of_flat r) in
  match L.at_depth ~path:[ 3 ] Fun.id n with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted bad path"

let qtest = QCheck_alcotest.to_alcotest

let arb_rows =
  QCheck.(
    small_list
      (triple
         (oneof [ always Value.Null; map (fun i -> Value.Int i) (int_bound 3) ])
         (map (fun i -> Value.Int i) (int_bound 9))
         (map (fun i -> Value.Int i) small_int)))

let prop_nest_partitions =
  QCheck.Test.make ~name:"nest partitions the rows" arb_rows (fun rows ->
      let r = flat rows in
      let g = G.nest_sort ~by:[| 0 |] ~keep:[| 1; 2 |] r in
      Relation.equal_bag r (G.unnest g))

let prop_quant_vs_bruteforce =
  QCheck.Test.make ~name:"quantifiers match brute force"
    QCheck.(
      pair
        (oneof [ always Value.Null; map (fun i -> Value.Int i) (int_bound 5) ])
        (small_list
           (oneof
              [ always Value.Null; map (fun i -> Value.Int i) (int_bound 5) ])))
    (fun (x, set) ->
      let elems = List.map (fun v -> [| v |]) set in
      let brute op q =
        let results = List.map (fun v -> T.cmp op x v) set in
        match q with LP.Some_ -> T.disj results | LP.All -> T.conj results
      in
      List.for_all
        (fun op ->
          List.for_all
            (fun q ->
              T.equal
                (LP.eval (LP.Quant (Expr.Const x, op, q, 0)) ~outer:[||]
                   ~elems)
                (brute op q))
            [ LP.Some_; LP.All ])
        [ T.Eq; T.Neq; T.Lt; T.Le; T.Gt; T.Ge ])

let () =
  Alcotest.run "nested"
    [
      ( "general model",
        [
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "nest groups NULLs" `Quick
            test_nest_groups_nulls;
          Alcotest.test_case "nest errors" `Quick test_nest_errors;
          Alcotest.test_case "unnest inverse" `Quick test_unnest_inverse;
          Alcotest.test_case "unnest drops empty" `Quick
            test_unnest_drops_empty;
          Alcotest.test_case "set semantics" `Quick test_equal_set_semantics;
        ] );
      ( "grouped",
        [
          Alcotest.test_case "unnest" `Quick test_grouped_unnest;
          Alcotest.test_case "to_nested" `Quick test_grouped_to_nested;
        ] );
      ( "linking",
        [
          Alcotest.test_case "quantifier semantics" `Quick
            test_quantifier_semantics;
          Alcotest.test_case "scalar link" `Quick test_scalar_link;
          Alcotest.test_case "fold reuse" `Quick test_fold_reuse;
          Alcotest.test_case "marker filter" `Quick test_marker_filter;
          Alcotest.test_case "positivity" `Quick test_is_positive;
          Alcotest.test_case "grouped selections" `Quick test_grouped_select;
          Alcotest.test_case "general-model selections" `Quick
            test_linking_on_general_model;
          Alcotest.test_case "deep linking (Query Q in the model)" `Quick
            test_deep_linking_query_q;
          Alcotest.test_case "at_depth errors" `Quick test_at_depth_errors;
        ] );
      ( "properties",
        [
          qtest prop_nest_partitions;
          qtest prop_quant_vs_bruteforce;
        ] );
    ]
