(* The columnar batch layer: round-trip exactness, the filter's
   equivalence with the row-at-a-time predicate, and the batch a base
   table owns.

   The properties here are what the bit-identity argument in
   docs/PERF.md rests on: [to_relation (of_relation r) = r]
   structurally (constructors preserved, NULLs included), and a
   compiled [filter_plan] agrees with [Expr.holds] on every row and
   every morsel split — the columnar-vs-row check. *)

open Nra
open Test_support

let qtest = QCheck_alcotest.to_alcotest

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
   NULL constants, which exercise the generic and constant plans) *)
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
    match int_range 0 5 st with
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
      match int_range 0 2 st with
      | 0 -> Expr.And (tree (depth - 1) st, tree (depth - 1) st)
      | 1 -> Expr.Or (tree (depth - 1) st, tree (depth - 1) st)
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

let prop_filter_plan =
  QCheck.Test.make ~count:1000
    ~name:"filter_plan agrees with Expr.holds on every morsel split"
    arb_rel_pred (fun (rel, pred) ->
      let rows = Relation.rows rel in
      let n = Array.length rows in
      let expect =
        List.filter (fun i -> Expr.holds pred rows.(i)) (List.init n Fun.id)
      in
      match Batch.filter_plan pred (Batch.of_relation rel) with
      | None -> n = 0 (* the generated subset must always compile *)
      | Some plan ->
          let whole = Array.to_list (plan ~lo:0 ~hi:n) in
          let mid = n / 2 in
          let split =
            Array.to_list (plan ~lo:0 ~hi:mid)
            @ Array.to_list (plan ~lo:mid ~hi:n)
          in
          whole = expect && split = expect)

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

let test_unvectorizable () =
  let rel =
    mk [ Schema.column "a" Ttype.String ] [| [| vs "ab" |] |]
  in
  List.iter
    (fun pred ->
      Alcotest.(check bool)
        "outside the subset" true
        (Batch.filter_plan pred (Batch.of_relation rel) = None))
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
        ] );
      ( "properties",
        [
          qtest prop_roundtrip;
          qtest prop_filter_plan;
        ] );
    ]
