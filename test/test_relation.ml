open Nra
open Test_support

let schema =
  Schema.of_columns
    [
      Schema.column ~table:"t" "a" Ttype.Int;
      Schema.column ~table:"t" ~not_null:true "b" Ttype.String;
      Schema.column ~table:"t" "c" Ttype.Date;
      Schema.column ~table:"t" "d" Ttype.Float;
    ]

let rel rows = Relation.make schema (Array.of_list rows)

let sample () =
  rel
    [
      [| vi 2; vs "x"; Value.Date 10; vf 1.5 |];
      [| vi 1; vs "y"; Value.Date 5; vnull |];
      [| vi 2; vs "x"; Value.Date 10; vf 1.5 |];
      [| vnull; vs "z,with\"quote"; Value.Date 0; vf (-2.25) |];
    ]

let test_make_arity () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.make: row arity 2 <> schema arity 4")
    (fun () -> ignore (Relation.make schema [| [| vi 1; vi 2 |] |]))

let test_typecheck () =
  (match Relation.typecheck (sample ()) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let bad_type = rel [ [| vs "no"; vs "b"; Value.Date 0; vf 0.0 |] ] in
  (match Relation.typecheck bad_type with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted wrong type");
  (* a passing check allocates nothing, whichever rows it reads *)
  let r = sample () in
  let only = Some [| 0; Relation.cardinality r - 1 |] in
  Alcotest.(check bool) "a passing check allocates nothing" true
    (Test_support.words_per 1000 (fun _ ->
         ignore (Relation.typecheck r);
         ignore (Relation.typecheck ?only r))
    < 0.05);
  let bad_null =
    rel [ [| vi 1; vs "a"; Value.Date 0; vf 0.0 |]; [| vi 1; vnull; Value.Date 0; vf 0.0 |] ]
  in
  (match Relation.typecheck ~only:[| 0 |] bad_null with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("checked a row outside ?only: " ^ m));
  match Relation.typecheck ~only:[| 1 |] bad_null with
  | Error m ->
      Alcotest.(check string) "names the row by its position"
        "row 1, column t.b: NULL violates NOT NULL" m
  | Ok () -> Alcotest.fail "accepted NULL in NOT NULL column"

let test_filter_map_project () =
  let r = sample () in
  let f = Relation.filter (fun row -> Value.equal row.(0) (vi 2)) r in
  Alcotest.(check int) "filter" 2 (Relation.cardinality f);
  let p = Relation.project r [ 1 ] in
  Alcotest.(check int) "project arity" 1 (Schema.arity (Relation.schema p));
  Alcotest.(check int) "project keeps rows" 4 (Relation.cardinality p)

let test_sort_dedup () =
  let r = sample () in
  let s = Relation.sort_by [| 0 |] r in
  let first = (Relation.rows s).(0) in
  Alcotest.(check bool) "nulls first" true (Value.is_null first.(0));
  let d = Relation.dedup r in
  Alcotest.(check int) "dedup" 3 (Relation.cardinality d);
  (* against first occurrences kept by a list scan, in order: rows that
     repeat, NULLs in every column (NULL equals NULL), Int against Float
     cells (3 = 3.0) *)
  let list_dedup rows =
    List.rev
      (List.fold_left
         (fun seen r ->
           if List.exists (Row.equal r) seen then seen else r :: seen)
         [] rows)
  in
  List.iter
    (fun rows ->
      let got = Array.to_list (Relation.rows (Relation.dedup (rel rows))) in
      Alcotest.(check bool) "dedup = list scan" true
        (List.equal Row.equal (list_dedup rows) got))
    [
      Array.to_list (Relation.rows r);
      [];
      [
        [| vnull; vs "a"; vnull; vnull |];
        [| vi 1; vs "a"; Value.Date 1; vi 3 |];
        [| vnull; vs "a"; vnull; vnull |];
        [| vi 1; vs "a"; Value.Date 1; vf 3.0 |];
        [| vi 1; vs "b"; Value.Date 1; vf 3.0 |];
        [| vnull; vs "a"; Value.Date 1; vnull |];
        [| vi 1; vs "a"; Value.Date 1; vi 3 |];
        [| vnull; vs "a"; vnull; vnull |];
      ];
    ]

let test_bag_set_equality () =
  let r = sample () in
  let shuffled =
    Relation.make schema
      (Array.of_list (List.rev (Array.to_list (Relation.rows r))))
  in
  Alcotest.(check bool) "bag equal under permutation" true
    (Relation.equal_bag r shuffled);
  Alcotest.(check bool) "bag differs from dedup" false
    (Relation.equal_bag r (Relation.dedup r));
  Alcotest.(check bool) "set equal to dedup" true
    (Relation.equal_set r (Relation.dedup r))

let test_csv_roundtrip () =
  let r = sample () in
  match Relation.of_csv schema (Relation.to_csv r) with
  | Ok r' ->
      Alcotest.(check bool) "roundtrip" true (Relation.equal_bag r r')
  | Error m -> Alcotest.fail m

let test_csv_errors () =
  (match Relation.of_csv schema "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted empty CSV");
  (match Relation.of_csv schema "h\n1,2\n" with
  | Error m ->
      Alcotest.(check bool) "field count" true
        (String.length m > 0)
  | Ok _ -> Alcotest.fail "accepted wrong field count");
  match Relation.of_csv schema "a,b,c,d\nxx,y,1970-01-01,0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad int"

let qtest = QCheck_alcotest.to_alcotest

let arb_rel =
  QCheck.(
    map
      (fun rows ->
        rel
          (List.map
             (fun (a, b, c, d) ->
               [|
                 (match a with None -> Value.Null | Some i -> Value.Int i);
                 Value.String b;
                 Value.Date c;
                 (match d with
                 | None -> Value.Null
                 | Some f -> Value.Float (Float.of_int f /. 8.));
               |])
             rows))
      (small_list
         (quad (option small_int)
            (string_small_of Gen.printable)
            small_int (option small_int))))

let prop_csv_roundtrip =
  QCheck.Test.make ~name:"CSV roundtrip" arb_rel (fun r ->
      match Relation.of_csv schema (Relation.to_csv r) with
      | Ok r' -> Relation.equal_bag r r'
      | Error _ -> false)

let prop_sort_is_permutation =
  QCheck.Test.make ~name:"sort_by permutes" arb_rel (fun r ->
      Relation.equal_bag r (Relation.sort_by [| 0; 2 |] r))

let prop_dedup_idempotent =
  QCheck.Test.make ~name:"dedup idempotent" arb_rel (fun r ->
      let d = Relation.dedup r in
      Relation.equal_bag d (Relation.dedup d))

let () =
  Alcotest.run "relation"
    [
      ( "basics",
        [
          Alcotest.test_case "arity check" `Quick test_make_arity;
          Alcotest.test_case "typecheck" `Quick test_typecheck;
          Alcotest.test_case "filter/map/project" `Quick
            test_filter_map_project;
          Alcotest.test_case "sort/dedup" `Quick test_sort_dedup;
          Alcotest.test_case "bag/set equality" `Quick test_bag_set_equality;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "errors" `Quick test_csv_errors;
        ] );
      ( "properties",
        [
          qtest prop_csv_roundtrip;
          qtest prop_sort_is_permutation;
          qtest prop_dedup_idempotent;
        ] );
    ]
