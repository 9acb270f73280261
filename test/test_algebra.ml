open Nra
open Test_support
module B = Algebra.Basic
module J = Algebra.Join
module S = Algebra.Setops
module Agg = Algebra.Aggregate
module T = Three_valued

let schema2 t =
  Schema.of_columns
    [ Schema.column ~table:t "a" Ttype.Int; Schema.column ~table:t "b" Ttype.Int ]

let rel t rows =
  Relation.make (schema2 t)
    (Array.of_list (List.map (fun (a, b) -> [| a; b |]) rows))

let left () =
  rel "l" [ (vi 1, vi 10); (vi 2, vi 20); (vi 3, vnull); (vnull, vi 40) ]

let right () =
  rel "r" [ (vi 1, vi 100); (vi 1, vi 101); (vi 3, vi 300); (vnull, vi 400) ]

let eq_on_a = Expr.Cmp (T.Eq, Expr.Col 0, Expr.Col 2)

let test_select () =
  let r = B.select (Expr.Cmp (T.Ge, Expr.Col 0, Expr.Const (vi 2))) (left ()) in
  (* NULL comparison is unknown: row (null, 40) is dropped *)
  Alcotest.(check int) "rows" 2 (Relation.cardinality r)

let test_project_exprs () =
  let r =
    B.project_exprs
      [
        (Expr.Add (Expr.Col 0, Expr.Col 1), Schema.column "s" Ttype.Int);
        (Expr.Const (vi 7), Schema.column "k" Ttype.Int);
      ]
      (left ())
  in
  check_rows "computed"
    [
      [ None; Some 7 ];
      [ None; Some 7 ];
      [ Some 11; Some 7 ];
      [ Some 22; Some 7 ];
    ]
    r

(* The output rows and their array are all a projection allocates per
   row: no closure per row.  Column and constant expressions allocate
   nothing when evaluated, so the rest is per call. *)
let test_project_exprs_alloc () =
  let n = 10_000 in
  let rel =
    Relation.make
      (Schema.of_columns
         [ Schema.column "a" Ttype.Int; Schema.column "b" Ttype.Int ])
      (Array.init n (fun i -> [| vi i; vi (2 * i) |]))
  in
  let items =
    [
      (Expr.Col 1, Schema.column "b" Ttype.Int);
      (Expr.Const (vi 7), Schema.column "k" Ttype.Int);
      (Expr.Col 0, Schema.column "a" Ttype.Int);
    ]
  in
  let words =
    words_per 5 (fun _ ->
        ignore (Sys.opaque_identity (B.project_exprs items rel)))
  in
  (* a header and three fields per row, a header and a slot per row for
     the array *)
  let rows_and_array = float_of_int ((n * 4) + n + 1) in
  if words > rows_and_array +. 1000.0 then
    Alcotest.failf "project_exprs allocated %.0f words for %.0f of output"
      words rows_and_array

let test_product_limit_distinct () =
  let p = B.product (left ()) (right ()) in
  Alcotest.(check int) "product" 16 (Relation.cardinality p);
  Alcotest.(check int) "limit" 3 (Relation.cardinality (B.limit 3 p));
  Alcotest.(check int) "limit beyond" 16
    (Relation.cardinality (B.limit 99 p));
  let dup = Relation.append (left ()) (left ()) in
  Alcotest.(check int) "distinct" 4 (Relation.cardinality (B.distinct dup))

let test_inner_join () =
  let r = J.join J.Inner ~on:eq_on_a (left ()) (right ()) in
  (* 1 matches twice, 3 once; NULL keys never match *)
  check_rows "inner"
    [
      [ Some 1; Some 10; Some 1; Some 100 ];
      [ Some 1; Some 10; Some 1; Some 101 ];
      [ Some 3; None; Some 3; Some 300 ];
    ]
    r

let test_left_outer_join () =
  let r = J.join J.Left_outer ~on:eq_on_a (left ()) (right ()) in
  check_rows "outer"
    [
      [ None; Some 40; None; None ];
      [ Some 1; Some 10; Some 1; Some 100 ];
      [ Some 1; Some 10; Some 1; Some 101 ];
      [ Some 2; Some 20; None; None ];
      [ Some 3; None; Some 3; Some 300 ];
    ]
    r

let test_semi_anti () =
  let s = J.join J.Semi ~on:eq_on_a (left ()) (right ()) in
  check_rows "semi" [ [ Some 1; Some 10 ]; [ Some 3; None ] ] s;
  let a = J.join J.Anti ~on:eq_on_a (left ()) (right ()) in
  check_rows "anti" [ [ None; Some 40 ]; [ Some 2; Some 20 ] ] a

let test_residual_join () =
  (* equi on a plus a residual inequality on the b columns *)
  let on =
    Expr.And (eq_on_a, Expr.Cmp (T.Gt, Expr.Col 3, Expr.Const (vi 100)))
  in
  let r = J.join J.Inner ~on (left ()) (right ()) in
  check_rows "residual"
    [
      [ Some 1; Some 10; Some 1; Some 101 ];
      [ Some 3; None; Some 3; Some 300 ];
    ]
    r

let test_pure_theta_join () =
  (* no equi conjunct: must fall back to nested loop *)
  let on = Expr.Cmp (T.Lt, Expr.Col 0, Expr.Col 2) in
  let r = J.join J.Inner ~on (left ()) (right ()) in
  (* 1<3 and 2<3; NULLs on either side never qualify *)
  Alcotest.(check int) "theta join" 2 (Relation.cardinality r)

(* seeded, so that two runs print the same log *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |]) t

let arb_pairs =
  QCheck.(
    small_list
      (pair
         (oneof [ always Value.Null; map (fun i -> Value.Int i) (int_bound 5) ])
         (map (fun i -> Value.Int i) (int_bound 5))))

let prop_hash_eq_nested_loop =
  QCheck.Test.make ~name:"hash join = nested loop join (all kinds)"
    (QCheck.pair arb_pairs arb_pairs)
    (fun (l, r) ->
      let lrel = rel "l" l and rrel = rel "r" r in
      let on =
        Expr.And (eq_on_a, Expr.Cmp (T.Le, Expr.Col 1, Expr.Col 3))
      in
      List.for_all
        (fun kind ->
          Relation.equal_bag
            (J.join kind ~on lrel rrel)
            (J.nested_loop kind ~on lrel rrel))
        [ J.Inner; J.Left_outer; J.Semi; J.Anti ])

let prop_outer_join_left_preserving =
  QCheck.Test.make ~name:"left outer join preserves every left row"
    (QCheck.pair arb_pairs arb_pairs)
    (fun (l, r) ->
      let lrel = rel "l" l and rrel = rel "r" r in
      let o = J.join J.Left_outer ~on:eq_on_a lrel rrel in
      let left_part = Relation.project o [ 0; 1 ] in
      Relation.cardinality o >= Relation.cardinality lrel
      && List.for_all
           (fun row -> List.exists (Row.equal row) (Relation.sorted_rows left_part))
           (Relation.sorted_rows lrel))

let prop_semi_anti_partition =
  QCheck.Test.make ~name:"semi and anti partition the left side"
    (QCheck.pair arb_pairs arb_pairs)
    (fun (l, r) ->
      let lrel = rel "l" l and rrel = rel "r" r in
      let s = J.join J.Semi ~on:eq_on_a lrel rrel in
      let a = J.join J.Anti ~on:eq_on_a lrel rrel in
      Relation.equal_bag lrel (Relation.append s a))

let test_setops () =
  let a = rel "x" [ (vi 1, vi 1); (vi 1, vi 1); (vi 2, vi 2) ] in
  let b = rel "x" [ (vi 1, vi 1); (vi 3, vi 3) ] in
  Alcotest.(check int) "union dedups" 3 (Relation.cardinality (S.union a b));
  Alcotest.(check int) "union_all" 5 (Relation.cardinality (S.union_all a b));
  Alcotest.(check int) "intersect" 1 (Relation.cardinality (S.intersect a b));
  Alcotest.(check int) "intersect_all min multiplicity" 1
    (Relation.cardinality (S.intersect_all a b));
  Alcotest.(check int) "except" 1 (Relation.cardinality (S.except a b));
  Alcotest.(check int) "except_all subtracts multiplicity" 2
    (Relation.cardinality (S.except_all a b))

let test_division () =
  (* students × courses: who takes every required course? *)
  let takes =
    rel "t"
      [
        (vi 1, vi 10); (vi 1, vi 20); (vi 1, vi 30);
        (vi 2, vi 10); (vi 2, vi 30);
        (vi 3, vi 20);
      ]
  in
  let required = rel "req" [ (vi 0, vi 10); (vi 0, vi 30) ] in
  let d = S.divide takes ~by:required ~on:[ (1, 1) ] in
  check_rows "students covering the divisor" [ [ Some 1 ]; [ Some 2 ] ] d;
  (* empty divisor: universally true *)
  let d = S.divide takes ~by:(rel "req" []) ~on:[ (1, 1) ] in
  Alcotest.(check int) "for-all over empty set" 3 (Relation.cardinality d);
  (* duplicate divisor rows don't change the answer *)
  let required2 =
    rel "req" [ (vi 0, vi 10); (vi 9, vi 10); (vi 0, vi 30) ]
  in
  let d = S.divide takes ~by:required2 ~on:[ (1, 1) ] in
  Alcotest.(check int) "divisor is a set" 2 (Relation.cardinality d)

(* division agrees with its double-negation definition:
   x qualifies iff ¬∃ s ∈ S. ¬∃ (x, s) ∈ R *)
let prop_division_vs_double_negation =
  QCheck.Test.make ~name:"division = double NOT EXISTS"
    QCheck.(
      pair
        (small_list (pair (int_bound 3) (int_bound 3)))
        (small_list (int_bound 3)))
    (fun (pairs, ys) ->
      let takes = rel "t" (List.map (fun (x, y) -> (vi x, vi y)) pairs) in
      let req = rel "r" (List.map (fun y -> (vi 0, vi y)) ys) in
      let d = S.divide takes ~by:req ~on:[ (1, 1) ] in
      let xs = List.sort_uniq compare (List.map fst pairs) in
      let expected =
        List.filter
          (fun x ->
            List.for_all (fun y -> List.mem (x, y) pairs)
              (List.sort_uniq compare ys))
          xs
      in
      List.length expected = Relation.cardinality d
      && List.for_all
           (fun x ->
             Array.exists
               (fun row -> Value.equal row.(0) (vi x))
               (Relation.rows d))
           expected)

let test_aggregates () =
  let r =
    rel "x"
      [ (vi 1, vi 10); (vi 1, vnull); (vi 2, vi 5); (vi 2, vi 7); (vi 1, vi 2) ]
  in
  let g =
    Agg.group_by ~keys:[ 0 ]
      [
        { Agg.func = Agg.Count_star; as_name = "n" };
        { Agg.func = Agg.Count (Expr.Col 1); as_name = "nv" };
        { Agg.func = Agg.Sum (Expr.Col 1); as_name = "s" };
        { Agg.func = Agg.Min (Expr.Col 1); as_name = "mn" };
        { Agg.func = Agg.Max (Expr.Col 1); as_name = "mx" };
      ]
      r
  in
  check_rows "group_by"
    [
      [ Some 1; Some 3; Some 2; Some 12; Some 2; Some 10 ];
      [ Some 2; Some 2; Some 2; Some 12; Some 5; Some 7 ];
    ]
    g;
  (* against a list scan: the distinct keys in first-seen order, each
     with the aggregates over its rows; keys that repeat, NULL keys (a
     group of their own) and Int against Float keys (1 = 1.0), on one
     column and on both *)
  let specs =
    [
      { Agg.func = Agg.Count_star; as_name = "n" };
      { Agg.func = Agg.Sum (Expr.Col 1); as_name = "s" };
      { Agg.func = Agg.Max (Expr.Col 0); as_name = "mx" };
    ]
  in
  let list_group_by keys r =
    let kpos = Array.of_list keys in
    let key row = Row.project_arr row kpos in
    let distinct =
      Array.fold_left
        (fun seen row ->
          if List.exists (Row.equal (key row)) seen then seen
          else key row :: seen)
        [] (Relation.rows r)
    in
    List.rev_map
      (fun k ->
        Array.append k
          (Relation.rows
             (Agg.global specs
                (Relation.filter (fun row -> Row.equal (key row) k) r))).(0))
      distinct
  in
  let r2 =
    rel "x"
      [
        (vnull, vi 1); (vi 1, vi 2); (vnull, vnull); (vf 1.0, vi 4);
        (vi 2, vnull); (vi 1, vnull); (vnull, vi 1); (vi 2, vi 5);
        (vi 1, vi 2);
      ]
  in
  List.iter
    (fun (r, keys) ->
      let got = Array.to_list (Relation.rows (Agg.group_by ~keys specs r)) in
      Alcotest.(check bool) "group_by = list scan" true
        (List.equal Row.equal (list_group_by keys r) got))
    [ (r, [ 0 ]); (r2, [ 0 ]); (r2, [ 1 ]); (r2, [ 0; 1 ]); (r2, [ 1; 0 ]) ];
  let empty = rel "x" [] in
  let glob =
    Agg.global
      [
        { Agg.func = Agg.Count_star; as_name = "n" };
        { Agg.func = Agg.Sum (Expr.Col 0); as_name = "s" };
      ]
      empty
  in
  check_rows "global over empty: COUNT 0, SUM NULL" [ [ Some 0; None ] ] glob

let test_avg () =
  let r = rel "x" [ (vi 1, vi 10); (vi 1, vi 20); (vi 1, vnull) ] in
  let g =
    Agg.group_by ~keys:[ 0 ] [ { Agg.func = Agg.Avg (Expr.Col 1); as_name = "a" } ] r
  in
  let row = (Relation.rows g).(0) in
  Alcotest.check value_testable "avg ignores nulls" (vf 15.0) row.(1)

let test_sort () =
  let r = rel "x" [ (vi 2, vi 1); (vnull, vi 2); (vi 1, vi 3) ] in
  let s =
    Algebra.Sort.sort
      [ { Algebra.Sort.pos = 0; dir = Algebra.Sort.Desc } ]
      r
  in
  let first = (Relation.rows s).(0) in
  Alcotest.check value_testable "desc puts nulls last... first is 2" (vi 2)
    first.(0);
  let last = (Relation.rows s).(2) in
  Alcotest.(check bool) "null last on desc" true (Value.is_null last.(0))

(* ---------- group-offset vectors ----------

   Every physical variant of [Join.with_matches] must hand back the same
   per-left-row position sequences.  The variants are forced by
   configuration: the nested loop by hiding the equi-conjunct behind
   [OR FALSE] (same 3VL truth, no equi key), the serial hash table at
   the default serial pool, the parallel one at pool 2 with the
   threshold forced low, the grace path at 8 frames of 2 rows, serial
   and at pool 2 (its spilled partitions on a worker domain). *)

let irel t cols rows =
  Relation.make
    (Schema.of_columns
       (List.map (fun c -> Schema.column ~table:t c Ttype.Int) cols))
    (Array.map (Array.map (function None -> vnull | Some i -> vi i)) rows)

(* NULL keys and duplicate keys on both sides *)
let off_left =
  irel "l" [ "a"; "b" ]
    (Array.init 40 (fun i ->
         [| (if i mod 9 = 4 then None else Some (i mod 7)); Some i |]))

let off_right =
  irel "r" [ "c"; "d" ]
    (Array.init 60 (fun i ->
         [|
           (if i mod 11 = 3 then None else Some (i mod 5)); Some (i mod 13);
         |]))

(* a two-column key whose equal cells mix [Int 1] and [Float 1.0], with
   NULLs in either column *)
let mixed t cols rows =
  Relation.make
    (Schema.of_columns
       (List.map (fun c -> Schema.column ~table:t c Ttype.Float) cols))
    rows

let mixed_cell ~null ~float k =
  if null then vnull else if float then vf (float_of_int k) else vi k

let mixed_left =
  mixed "l" [ "a"; "b" ]
    (Array.init 40 (fun i ->
         [|
           mixed_cell ~null:(i mod 7 = 2) ~float:(i mod 2 = 0) (i mod 3);
           mixed_cell ~null:(i mod 11 = 5) ~float:(i mod 5 < 2) (i mod 2);
         |]))

let mixed_right =
  mixed "r" [ "c"; "d" ]
    (Array.init 60 (fun j ->
         [|
           mixed_cell ~null:(j mod 13 = 4) ~float:(j / 2 mod 2 = 0) (j mod 3);
           mixed_cell ~null:(j mod 9 = 7) ~float:(j mod 3 = 0) (j mod 2);
         |]))

let empty_of rel = Relation.make (Relation.schema rel) [||]

(* over l(a, b) ++ r(c, d) *)
let off_preds =
  [
    ("equi", Expr.Cmp (T.Eq, Expr.Col 0, Expr.Col 2));
    ( "equi + residual",
      Expr.And
        ( Expr.Cmp (T.Eq, Expr.Col 0, Expr.Col 2),
          Expr.Cmp (T.Lt, Expr.Col 3, Expr.Col 1) ) );
    ( "two-column equi",
      Expr.And
        ( Expr.Cmp (T.Eq, Expr.Col 0, Expr.Col 2),
          Expr.Cmp (T.Eq, Expr.Col 1, Expr.Col 3) ) );
    ("trivially true", Expr.Lit3 T.True);
    ("theta only", Expr.Cmp (T.Gt, Expr.Col 1, Expr.Col 3));
  ]

let off_inputs =
  [
    ("both", off_left, off_right);
    ("empty left", empty_of off_left, off_right);
    ("empty right", off_left, empty_of off_right);
    ("mixed Int/Float keys", mixed_left, mixed_right);
  ]

let check_rows_exact what expected got =
  if Relation.rows expected <> Relation.rows got then
    Alcotest.fail
      (Format.asprintf "%s:@.expected@.%a@.got@.%a" what Relation.pp expected
         Relation.pp got)

let positions ?left_sel ?sel ~on left right =
  let n =
    match left_sel with
    | Some (_, count) -> count
    | None -> Relation.cardinality left
  in
  J.with_matches ~on ?left_sel ?sel left right (fun m ->
      Array.init n (fun i -> Array.sub m.J.pos m.J.off.(i) m.J.len.(i)))

let with_variant variant f =
  with_config
    (fun c ->
      match variant with
      | `Serial | `Nested_loop -> { c with domains = 0; frames = Off }
      | `Parallel ->
          { c with domains = 2; parallel_threshold = 2; frames = Off }
      | `Grace ->
          {
            c with
            domains = 0;
            frames = Pages 8;
            iosim = { c.iosim with Iosim.rows_per_page = 2 };
          }
      | `Grace_pool ->
          {
            c with
            domains = 2;
            parallel_threshold = 2;
            frames = Pages 8;
            iosim = { c.iosim with Iosim.rows_per_page = 2 };
          })
  @@ fun () ->
  Iosim.reset ();
  f ()

let variants =
  [ ("nested loop", `Nested_loop); ("serial", `Serial);
    ("parallel", `Parallel); ("grace", `Grace);
    ("grace, pool 2", `Grace_pool) ]

let on_for variant on =
  match variant with
  | `Nested_loop -> Expr.Or (on, Expr.Lit3 T.False)
  | _ -> on

(* what every variant must produce: right positions in build order *)
let reference_positions ~on left right =
  Array.map
    (fun lrow ->
      let acc = ref [] in
      Array.iteri
        (fun j rrow ->
          if Expr.holds on (Row.concat lrow rrow) then acc := j :: !acc)
        (Relation.rows right);
      Array.of_list (List.rev !acc))
    (Relation.rows left)

let test_offset_variants () =
  List.iter
    (fun (iname, left, right) ->
      List.iter
        (fun (pname, on) ->
          let expected = reference_positions ~on left right in
          List.iter
            (fun (vname, variant) ->
              let what = Printf.sprintf "%s, %s, %s" iname pname vname in
              with_variant variant (fun () ->
                  let on = on_for variant on in
                  Alcotest.(check (array (array int)))
                    (what ^ ": positions") expected
                    (positions ~on left right);
                  List.iter
                    (fun (kname, kind) ->
                      check_rows_exact (what ^ ": " ^ kname)
                        (J.nested_loop kind ~on left right)
                        (J.join kind ~on left right))
                    [ ("inner", J.Inner); ("left outer", J.Left_outer);
                      ("semi", J.Semi); ("anti", J.Anti) ]))
            variants)
        off_preds)
    off_inputs

let off_sels =
  [
    ("odd rows", Array.init 30 (fun k -> (2 * k) + 1));
    ("with NULL keys", [| 0; 3; 14; 25; 36; 47; 58; 59 |]);
    ("none", [||]);
  ]

(* a longer, borrowed-style buffer: only the first [count] count *)
let borrowed sel = (Array.append sel (Array.make 7 (-1)), Array.length sel)

(* Probing the base relation through a selection vector equals probing
   the gathered relation, with positions mapped through the selection. *)
let test_offset_selection () =
  List.iter
    (fun (sname, sel) ->
      let buf, count = borrowed sel in
      let gathered = Relation.gather off_right sel count in
      List.iter
        (fun (pname, on) ->
          List.iter
            (fun (vname, variant) ->
              with_variant variant (fun () ->
                  let on = on_for variant on in
                  Alcotest.(check (array (array int)))
                    (Printf.sprintf "%s, %s, %s" sname pname vname)
                    (Array.map (Array.map (fun p -> sel.(p)))
                       (positions ~on off_left gathered))
                    (positions ~on ~sel:(buf, count) off_left off_right)))
            variants)
        off_preds)
    off_sels

(* The same on the probe side: left row [i] is row [lsel.(i)] of the
   base relation, and the offsets are indexed by [i].  The left rows
   kept are those of the first 40 positions of each selection. *)
let test_offset_left_selection () =
  List.iter
    (fun (sname, sel) ->
      let sel =
        Array.of_list (List.filter (fun p -> p < 40) (Array.to_list sel))
      in
      let lbuf, lcount = borrowed sel in
      let rbuf, rcount = borrowed [| 1; 2; 3; 5; 8; 13; 21; 34; 55 |] in
      let gathered = Relation.gather off_left sel lcount in
      let rgathered = Relation.gather off_right rbuf rcount in
      List.iter
        (fun (pname, on) ->
          List.iter
            (fun (vname, variant) ->
              with_variant variant (fun () ->
                  let on = on_for variant on in
                  let what = Printf.sprintf "%s, %s, %s" sname pname vname in
                  Alcotest.(check (array (array int)))
                    (what ^ ": left")
                    (positions ~on gathered off_right)
                    (positions ~on ~left_sel:(lbuf, lcount) off_left
                       off_right);
                  Alcotest.(check (array (array int)))
                    (what ^ ": both")
                    (Array.map (Array.map (fun p -> rbuf.(p)))
                       (positions ~on gathered rgathered))
                    (positions ~on ~left_sel:(lbuf, lcount)
                       ~sel:(rbuf, rcount) off_left off_right)))
            variants)
        off_preds)
    off_sels

(* ---------- borrowed buffers ----------

   Each case runs in a fresh domain, whose free list starts empty. *)

let in_fresh_domain f = Domain.join (Domain.spawn f)

let test_scratch_nested () =
  in_fresh_domain @@ fun () ->
  Scratch.with_ints 10 (fun a ->
      Scratch.with_ints 10 (fun b ->
          Alcotest.(check bool) "nested borrows are distinct" true (a != b);
          Alcotest.(check int) "two live" 2 (Scratch.live ())));
  Alcotest.(check int) "none live" 0 (Scratch.live ())

let test_scratch_reuse () =
  in_fresh_domain @@ fun () ->
  let a = Scratch.borrow 1000 in
  Scratch.release a;
  let b = Scratch.borrow 600 in
  Alcotest.(check bool) "a smaller borrow reuses the released buffer" true
    (a == b);
  Scratch.release b;
  let c = Scratch.borrow 5000 in
  Alcotest.(check bool) "a larger one does not" true (c != a);
  Alcotest.(check bool) "it is long enough" true (Array.length c >= 5000);
  Scratch.release c

let test_scratch_cap () =
  in_fresh_domain @@ fun () ->
  let bufs = List.init 20 (fun i -> Scratch.borrow (16 * (i + 1))) in
  List.iter Scratch.release bufs;
  Alcotest.(check int) "free list at its cap" Scratch.cap
    (Scratch.free_count ());
  (* the longest ones were kept *)
  let b = Scratch.borrow (16 * 20) in
  Alcotest.(check bool) "the longest is reused" true
    (List.exists (fun c -> c == b) bufs);
  Scratch.release b

let test_scratch_exception () =
  in_fresh_domain @@ fun () ->
  (try Scratch.with_ints 10 (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "released on raise" 0 (Scratch.live ());
  Alcotest.(check int) "back on the free list" 1 (Scratch.free_count ())

(* ---------- allocation pins ---------- *)

(* After a warm-up at the larger size, a serial equi-join probe
   allocates the same words at 10 K and at 40 K build rows: nothing per
   row, and every O(rows) array is a reused buffer. *)
let test_offset_allocation () =
  with_variant `Serial @@ fun () ->
  (* one match per left row; a NULL key every 100 rows *)
  let keyed n =
    irel "k" [ "k"; "v" ]
      (Array.init n (fun i ->
           [| (if i mod 100 = 7 then None else Some i); Some i |]))
  in
  let on = Expr.Cmp (T.Eq, Expr.Col 0, Expr.Col 2) in
  let probe n =
    let left = keyed n and right = keyed n in
    words_per 1 (fun _ ->
        ignore (J.with_matches ~on left right (fun m -> m.J.len.(0))))
  in
  ignore (probe 40_000);
  let small = probe 10_000 and large = probe 40_000 in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "words at 10 K (%.0f) = at 40 K (%.0f)" small large)
    small large

(* A residual is tested on one reused wide row, not on a row
   concatenated per candidate: a join whose every candidate fails a
   [<>] residual allocates the same words at 1 K and at 4 K candidates
   per left row. *)
let test_residual_allocation () =
  with_variant `Serial @@ fun () ->
  let on =
    Expr.And
      ( Expr.Cmp (T.Eq, Expr.Col 0, Expr.Col 2),
        Expr.Cmp (T.Neq, Expr.Col 1, Expr.Col 3) )
  in
  let probe candidates =
    let rows n = irel "r" [ "k"; "v" ] (Array.make n [| Some 1; Some 5 |]) in
    let left = rows 8 and right = rows candidates in
    words_per 1 (fun _ ->
        ignore (J.with_matches ~on left right (fun m -> m.J.len.(0))))
  in
  ignore (probe 4_000);
  let small = probe 1_000 and large = probe 4_000 in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "words at 1 K (%.0f) = at 4 K (%.0f) candidates" small
       large)
    small large

let test_offset_cartesian () =
  with_variant `Serial @@ fun () ->
  in_fresh_domain @@ fun () ->
  let n = 1000 in
  let rel t = irel t [ "x" ] (Array.init n (fun i -> [| Some i |])) in
  J.with_matches ~on:(Expr.Lit3 T.True) (rel "l") (rel "r") (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "%d positions for %d x %d" (Array.length m.J.pos) n n)
        true
        (Array.length m.J.pos <= 2 * (n + n));
      Alcotest.(check bool) "every row shares one range" true
        (Array.for_all (fun o -> o = m.J.off.(0)) (Array.sub m.J.off 0 n)
        && Array.for_all (fun l -> l = n) (Array.sub m.J.len 0 n)))

let () =
  Alcotest.run "algebra"
    [
      ( "basic",
        [
          Alcotest.test_case "select (3VL)" `Quick test_select;
          Alcotest.test_case "project_exprs" `Quick test_project_exprs;
          Alcotest.test_case "project_exprs allocates only its output"
            `Quick test_project_exprs_alloc;
          Alcotest.test_case "product/limit/distinct" `Quick
            test_product_limit_distinct;
        ] );
      ( "joins",
        [
          Alcotest.test_case "inner" `Quick test_inner_join;
          Alcotest.test_case "left outer" `Quick test_left_outer_join;
          Alcotest.test_case "semi/anti" `Quick test_semi_anti;
          Alcotest.test_case "residual" `Quick test_residual_join;
          Alcotest.test_case "pure theta" `Quick test_pure_theta_join;
        ] );
      ( "setops",
        [
          Alcotest.test_case "all six" `Quick test_setops;
          Alcotest.test_case "division" `Quick test_division;
          qtest prop_division_vs_double_negation;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "group_by" `Quick test_aggregates;
          Alcotest.test_case "avg" `Quick test_avg;
        ] );
      ("sort", [ Alcotest.test_case "directions" `Quick test_sort ]);
      ( "offsets",
        [
          Alcotest.test_case "variants give identical positions" `Quick
            test_offset_variants;
          Alcotest.test_case "selection = gathered" `Quick
            test_offset_selection;
          Alcotest.test_case "left selection = gathered" `Quick
            test_offset_left_selection;
          Alcotest.test_case "serial probe allocates per join, not per row"
            `Quick test_offset_allocation;
          Alcotest.test_case "a residual allocates nothing per candidate"
            `Quick test_residual_allocation;
          Alcotest.test_case "cartesian shares one range" `Quick
            test_offset_cartesian;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "nested borrows are distinct" `Quick
            test_scratch_nested;
          Alcotest.test_case "a released buffer is reused" `Quick
            test_scratch_reuse;
          Alcotest.test_case "the free list is capped" `Quick
            test_scratch_cap;
          Alcotest.test_case "an exception releases" `Quick
            test_scratch_exception;
        ] );
      ( "properties",
        [
          qtest prop_hash_eq_nested_loop;
          qtest prop_outer_join_left_preserving;
          qtest prop_semi_anti_partition;
        ] );
    ]
