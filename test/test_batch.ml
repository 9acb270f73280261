(* The columnar batch layer: round-trip exactness, the filter's
   equivalence with the row-at-a-time predicate, and the batch a base
   table owns.

   The properties here are what the bit-identity argument in
   docs/PERF.md rests on: [to_relation (of_relation r) = r]
   structurally (constructors preserved, NULLs included), and a
   selection lists exactly the rows [Expr.holds] keeps, in order, at
   every pool size and morsel size — the columnar-vs-row check. *)

open Nra
open Test_support

(* seeded, so that two runs print the same log *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |]) t

(* ---------- generators ---------- *)

type colkind = KInt | KFloat | KString | KBool | KDate | KMixed

let ttype_of = function
  | KInt -> Ttype.Int
  | KFloat | KMixed -> Ttype.Float
  | KString -> Ttype.String
  | KBool -> Ttype.Bool
  | KDate -> Ttype.Date

(* small value domains so predicates and join keys actually collide *)
let gen_cell kind st =
  let open QCheck.Gen in
  match kind with
  | KInt -> vi (int_range (-20) 20 st)
  | KFloat -> vf (float_of_int (int_range (-80) 80 st) /. 4.0)
  | KString -> vs (oneofl [ ""; "a"; "ab"; "b"; "ba"; "zzz" ] st)
  | KBool -> Value.Bool (bool st)
  | KDate -> Value.Date (int_range 0 30 st)
  | KMixed ->
      if bool st then vi (int_range (-20) 20 st)
      else vf (float_of_int (int_range (-80) 80 st) /. 4.0)

(* a relation with per-column kinds and null densities: typed columns,
   mixed Int/Float columns (the Boxed fallback), and null-heavy /
   all-null columns all appear *)
let gen_relation st =
  let open QCheck.Gen in
  let ncols = int_range 1 5 st in
  let nrows = int_range 0 60 st in
  let kinds =
    Array.init ncols (fun _ ->
        oneofl [ KInt; KFloat; KString; KBool; KDate; KMixed ] st)
  in
  let null_p =
    Array.init ncols (fun _ -> oneofl [ 0.0; 0.1; 0.5; 0.9; 1.0 ] st)
  in
  let schema =
    Schema.of_columns
      (List.init ncols (fun i ->
           Schema.column (Printf.sprintf "c%d" i) (ttype_of kinds.(i))))
  in
  let rows =
    Array.init nrows (fun _ ->
        Array.init ncols (fun c ->
            if float_bound_inclusive 1.0 st < null_p.(c) then Value.Null
            else gen_cell kinds.(c) st))
  in
  Relation.make schema rows

let print_relation rel = Relation.to_csv rel

let arb_relation = QCheck.make ~print:print_relation gen_relation

(* predicates drawn from the vectorizable subset (plus cross-typed and
   NULL constants, which exercise the generic and constant plans), and
   now and then a [Not], which puts the whole predicate outside it *)
let gen_pred ncols st =
  let open QCheck.Gen in
  let col st = Expr.Col (int_range 0 (ncols - 1) st) in
  let op st =
    oneofl
      [
        Three_valued.Eq;
        Three_valued.Neq;
        Three_valued.Lt;
        Three_valued.Le;
        Three_valued.Gt;
        Three_valued.Ge;
      ]
      st
  in
  let const st =
    if int_range 0 9 st = 0 then Value.Null
    else gen_cell (oneofl [ KInt; KFloat; KString; KBool; KDate ] st) st
  in
  let leaf st =
    match int_range 0 6 st with
    | 6 ->
        Expr.Lit3
          (oneofl
             [ Three_valued.True; Three_valued.False; Three_valued.Unknown ]
             st)
    | 0 | 1 -> Expr.Cmp (op st, col st, Expr.Const (const st))
    | 2 -> Expr.Cmp (op st, col st, col st)
    | 3 ->
        if bool st then Expr.Is_null (col st) else Expr.Is_not_null (col st)
    | 4 ->
        Expr.In_list
          (col st, List.init (int_range 0 3 st) (fun _ -> const st))
    | _ -> Expr.Between (col st, Expr.Const (const st), Expr.Const (const st))
  in
  let rec tree depth st =
    if depth = 0 then leaf st
    else
      match int_range 0 9 st with
      | 0 | 1 | 2 -> Expr.And (tree (depth - 1) st, tree (depth - 1) st)
      | 3 | 4 | 5 -> Expr.Or (tree (depth - 1) st, tree (depth - 1) st)
      | 6 -> Expr.Not (tree (depth - 1) st)
      | _ -> leaf st
  in
  tree 2 st

let arb_rel_pred =
  QCheck.make
    ~print:(fun (rel, pred) ->
      Format.asprintf "%a@.%s" Expr.pp_pred pred (print_relation rel))
    (fun st ->
      let rel = gen_relation st in
      let pred = gen_pred (Schema.arity (Relation.schema rel)) st in
      (rel, pred))

(* structural equality on rows pins constructors: Value.compare treats
   Int 3 and Float 3.0 as equal, but a round-trip must not rewrite one
   into the other.  No NaN in the generated domain, so (=) is sound. *)
let rows_identical a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (x : Row.t) (y : Row.t) -> x = y) a b

(* ---------- properties ---------- *)

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"of_relation |> to_relation is identity"
    arb_relation (fun rel ->
      let rel' = Batch.to_relation (Batch.of_relation rel) in
      Schema.equal_names (Relation.schema rel) (Relation.schema rel')
      && rows_identical (Relation.rows rel) (Relation.rows rel'))

let rec has_not = function
  | Expr.Not _ -> true
  | Expr.And (p, q) | Expr.Or (p, q) -> has_not p || has_not q
  | _ -> false

(* [Basic.selection] lists the positions of the rows [Expr.holds]
   keeps, ascending, whether the predicate runs through the columnar
   kernel or row by row; a predicate without [Not] always compiles *)
let prop_selection ~domains ~morsel =
  QCheck.Test.make ~count:1000
    ~name:
      (Printf.sprintf "selection = holds, pool %d, morsel %d" domains morsel)
    arb_rel_pred (fun (rel, pred) ->
      let rows = Relation.rows rel in
      let n = Array.length rows in
      let expect =
        List.filter (fun i -> Expr.holds pred rows.(i)) (List.init n Fun.id)
      in
      let batch = Batch.of_relation rel in
      let got =
        Algebra.Basic.selection ~batch pred rel (fun sel count ->
            List.init count (fun k -> sel.(k)))
      in
      got = expect
      && Option.is_some (Batch.filter pred batch) = not (has_not pred))

(* the property under one pool configuration, restored afterwards; the
   threshold is lowered so even a two-row relation takes the morsels *)
let with_pool ~domains ~morsel (name, speed, run) =
  ( name,
    speed,
    fun () ->
      with_config
        (fun c -> { c with domains; morsel; parallel_threshold = 2 })
        run )

let selection_properties =
  List.concat_map
    (fun domains ->
      List.map
        (fun morsel ->
          with_pool ~domains ~morsel
            (qtest (prop_selection ~domains ~morsel)))
        [ 16; 1024 ])
    [ 0; 1; 2; 4 ]

(* ---------- unit cases ---------- *)

let mk schema rows = Relation.make (Schema.of_columns schema) rows

let test_empty_roundtrip () =
  let rel = mk [ Schema.column "a" Ttype.Int ] [||] in
  let rel' = Batch.to_relation (Batch.of_relation rel) in
  Alcotest.(check int) "no rows" 0 (Relation.cardinality rel')

let test_mixed_column_preserved () =
  (* Ttype.Float admits Int cells: the column must come back with the
     same constructors, not coerced either way *)
  let rel =
    mk
      [ Schema.column "x" Ttype.Float ]
      [| [| vi 1 |]; [| vf 2.5 |]; [| vnull |]; [| vi 3 |] |]
  in
  let rel' = Batch.to_relation (Batch.of_relation rel) in
  Alcotest.(check bool)
    "constructors preserved" true
    (rows_identical (Relation.rows rel) (Relation.rows rel'))

let test_all_null_column () =
  let rel =
    mk
      [ Schema.column "a" Ttype.Int; Schema.column "b" Ttype.String ]
      [| [| vnull; vs "x" |]; [| vnull; vnull |]; [| vnull; vs "y" |] |]
  in
  let rel' = Batch.to_relation (Batch.of_relation rel) in
  Alcotest.(check bool)
    "all-null column survives" true
    (rows_identical (Relation.rows rel) (Relation.rows rel'))

(* A base table owns its batch: an alias shares it, a row replacement
   installs a fresh one, and the filter over it sees the new rows. *)
let test_table_columns () =
  let cat = emp_dept_catalog () in
  let emp () = Catalog.table cat "emp" in
  let before = Table.batch (emp ()) in
  Alcotest.(check bool) "alias shares the batch" true
    (Table.batch (Table.alias (emp ()) "e") == before);
  Catalog.update_rows cat "emp" (Relation.rows (Table.relation (emp ())));
  let fresh = Table.batch (emp ()) in
  Alcotest.(check bool) "update_rows installs a fresh batch" true
    (fresh != before);
  Alcotest.(check int) "fresh batch covers the rows" 6 (Batch.length fresh);
  let ok sql =
    match Nra.exec cat sql with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  in
  ok "insert into emp values (7, 'gil', 1, 95, null)";
  ok "delete from emp where emp_id = 1";
  match Nra.exec cat "select emp_id from emp where salary > 75" with
  | Ok (Rows rel) ->
      Alcotest.(check (list int)) "filtered SELECT sees the new rows"
        [ 5; 7 ]
        (List.sort compare
           (List.map
              (fun row ->
                match row.(0) with Value.Int i -> i | _ -> -1)
              (Array.to_list (Relation.rows rel))))
  | Ok _ -> Alcotest.fail "expected rows"
  | Error m -> Alcotest.fail m

(* A filter writes the positions that pass into one borrowed buffer
   and allocates nothing in proportion to the table: lineitem's
   [l_commitdate < l_receiptdate and l_shipdate < l_commitdate] shape,
   two date columns compared per conjunct, over 120,000 rows costs the
   compiled kernel's few closures.  Filtering with a bitmap per
   conjunct cost 3,859 words here. *)
let test_selection_words () =
  let n = 120_000 in
  let date = Schema.column "d" Ttype.Date in
  let rel =
    mk [ date; date; date ]
      (Array.init n (fun i ->
           [|
             Value.Date (i mod 97);
             Value.Date (i mod 89);
             Value.Date (i mod 83);
           |]))
  in
  let batch = Batch.of_relation rel in
  let pred =
    Expr.(
      And
        ( Cmp (Three_valued.Lt, Col 0, Col 1),
          Cmp (Three_valued.Lt, Col 2, Col 0) ))
  in
  let count = ref 0 in
  let words =
    words_per 5 (fun _ ->
        Algebra.Basic.selection ~batch pred rel (fun _ c -> count := c))
  in
  if !count = 0 || !count = n then
    Alcotest.failf "%d of %d rows pass: no refinement" !count n;
  if words >= 200.0 then
    Alcotest.failf
      "a two-conjunct selection over %d rows allocated %.0f words" n words

let test_unvectorizable () =
  let rel =
    mk [ Schema.column "a" Ttype.String ] [| [| vs "ab" |] |]
  in
  List.iter
    (fun pred ->
      Alcotest.(check bool)
        "outside the subset" true
        (Batch.filter pred (Batch.of_relation rel) = None))
    Expr.
      [
        Not (Is_null (Col 0));
        Like (Col 0, "a%");
        Cmp (Three_valued.Eq, Add (Col 0, Const (vi 1)), Const (vi 2));
      ]

let () =
  Alcotest.run "batch"
    [
      ( "units",
        [
          Alcotest.test_case "empty round-trip" `Quick test_empty_roundtrip;
          Alcotest.test_case "mixed int/float column" `Quick
            test_mixed_column_preserved;
          Alcotest.test_case "all-null column" `Quick test_all_null_column;
          Alcotest.test_case "table columns" `Quick test_table_columns;
          Alcotest.test_case "unvectorizable forms" `Quick
            test_unvectorizable;
          Alcotest.test_case "a selection allocates no bitmap" `Quick
            test_selection_words;
        ] );
      ("properties", qtest prop_roundtrip :: selection_properties);
    ]
