open Nra
open Test_support
module G = Nested.Grouped
module LP = Nested.Link_pred
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

(* ---------- grouped representation ---------- *)

let test_grouped_unnest () =
  let r = sample () in
  let g = G.nest_sort ~by:[| 0 |] ~keep:[| 1; 2 |] r in
  Alcotest.(check bool) "unnest restores rows" true
    (Relation.equal_bag r (unnest g))

let test_grouped_groups_nulls () =
  let g = G.nest_sort ~by:[| 0 |] ~keep:[| 1; 2 |] (sample ()) in
  (* groups: NULL, 1, 2, 3 — NULL keys group together like GROUP BY,
     and sort first *)
  Alcotest.(check int) "groups" 4 (group_count g);
  Alcotest.(check (list int))
    "group sizes" [ 2; 2; 1; 1 ]
    (Array.to_list (Array.map (fun (_, es) -> Array.length es) g.G.groups))

let test_grouped_unnest_drops_empty () =
  let g = G.nest_sort ~by:[| 0 |] ~keep:[| 1; 2 |] (sample ()) in
  let emptied =
    {
      g with
      G.groups =
        Array.map
          (fun (key, es) ->
            if Row.equal key [| vi 2 |] then (key, [||]) else (key, es))
          g.G.groups;
    }
  in
  Alcotest.(check int) "group 2 vanished" 5
    (Relation.cardinality (unnest emptied))

(* ---------- linking predicates ---------- *)

let test_quantifier_semantics () =
  let eval q op x elems =
    link_eval (LP.Quant (Expr.Const x, op, q, 0)) ~outer:[||]
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
    (link_eval LP.Non_empty ~outer:[||] ~elems:[ [| vi 1 |] ]);
  Alcotest.check t3 "not exists" T.True
    (link_eval LP.Is_empty ~outer:[||] ~elems:[])

(* the scalar case: no element is Unknown, one is a comparison, a
   second raises the same error text every executor reports *)
let test_scalar_link () =
  let pred = LP.Scalar (Expr.Col 0, T.Eq, 0) in
  let eval x elems =
    link_eval pred ~outer:[| x |] ~elems:(List.map (fun v -> [| v |]) elems)
  in
  Alcotest.check t3 "no row is unknown" T.Unknown (eval (vi 5) []);
  Alcotest.check t3 "5 = (5)" T.True (eval (vi 5) [ vi 5 ]);
  Alcotest.check t3 "5 = (4)" T.False (eval (vi 5) [ vi 4 ]);
  Alcotest.check t3 "5 = (null)" T.Unknown (eval (vi 5) [ vnull ]);
  Alcotest.check t3 "null = (5)" T.Unknown (eval vnull [ vi 5 ]);
  Alcotest.check_raises "two rows"
    (Failure "scalar subquery returned more than one row") (fun () ->
      ignore (eval (vi 5) [ vi 5; vi 6 ]));
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

(* an element whose marker position holds NULL is the padding of an
   unmatched outer join: [step_elem] skips it, so a group holding only
   that element decides as the empty set *)
let test_marker_filter () =
  let elems = [ [| vi 1; vi 9 |]; [| vi 2; vnull |] ] in
  let count_of ~marker =
    let f =
      LP.fold (LP.Agg (Expr.Col 0, T.Eq, Algebra.Aggregate.Count_star))
    in
    LP.clear f;
    List.iter (LP.step_elem f ~marker) elems;
    f
  in
  Alcotest.check t3 "marker drops padded" T.True
    (LP.verdict (count_of ~marker:(Some 1)) ~outer:[| vi 1 |]);
  Alcotest.check t3 "no marker keeps all" T.True
    (LP.verdict (count_of ~marker:None) ~outer:[| vi 2 |]);
  let f = LP.fold LP.Non_empty in
  LP.start f ~outer:[||];
  LP.step_elem f ~marker:(Some 1) [| vi 2; vnull |];
  Alcotest.check t3 "padding alone is the empty set" T.False (LP.finish f)

let test_grouped_select () =
  let g = G.nest_sort ~by:[| 0 |] ~keep:[| 1; 2 |] (sample ()) in
  (* keep groups where 15 < SOME {v}; the padded group (g=3) has marker
     NULL so its set is empty *)
  let pred = LP.Quant (Expr.Const (vi 15), T.Lt, LP.Some_, 0) in
  let sel = G.select G.Discard pred ~marker:(Some 1) g in
  check_rows "select keys" [ [ None ]; [ Some 1 ]; [ Some 2 ] ] sel;
  (* σ̄: every group survives; the failing one (g=3) is padded *)
  let psel = G.select (G.Pad [| 0 |]) pred ~marker:(Some 1) g in
  check_rows "pseudo-select pads the failed key"
    [ [ None ]; [ None ]; [ Some 1 ]; [ Some 2 ] ]
    psel

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
      Relation.equal_bag r (unnest g))

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
                (link_eval (LP.Quant (Expr.Const x, op, q, 0)) ~outer:[||]
                   ~elems)
                (brute op q))
            [ LP.Some_; LP.All ])
        [ T.Eq; T.Neq; T.Lt; T.Le; T.Gt; T.Ge ])

let () =
  Alcotest.run "nested"
    [
      ( "grouped",
        [
          Alcotest.test_case "unnest" `Quick test_grouped_unnest;
          Alcotest.test_case "nest groups NULLs" `Quick
            test_grouped_groups_nulls;
          Alcotest.test_case "unnest drops empty" `Quick
            test_grouped_unnest_drops_empty;
        ] );
      ( "linking",
        [
          Alcotest.test_case "quantifier semantics" `Quick
            test_quantifier_semantics;
          Alcotest.test_case "scalar link" `Quick test_scalar_link;
          Alcotest.test_case "fold reuse" `Quick test_fold_reuse;
          Alcotest.test_case "marker filter" `Quick test_marker_filter;
          Alcotest.test_case "grouped selections" `Quick test_grouped_select;
        ] );
      ( "properties",
        [
          qtest prop_nest_partitions;
          qtest prop_quant_vs_bruteforce;
        ] );
    ]
