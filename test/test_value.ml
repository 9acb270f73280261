open Nra
open Test_support

let qtest = QCheck_alcotest.to_alcotest

let arb_value =
  let open QCheck in
  let base =
    oneof
      [
        always Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) small_signed_int;
        map (fun f -> Value.Float f) (float_range (-1e6) 1e6);
        map (fun s -> Value.String s) (string_small_of Gen.printable);
        map (fun d -> Value.Date d) (int_range (-100_000) 100_000);
      ]
  in
  base

let test_is_null () =
  Alcotest.(check bool) "null" true (Value.is_null Value.Null);
  Alcotest.(check bool) "int" false (Value.is_null (vi 0))

let test_compare_basics () =
  Alcotest.(check int) "null = null" 0 (Value.compare Value.Null Value.Null);
  Alcotest.(check bool) "null sorts first" true
    (Value.compare Value.Null (vi (-1000)) < 0);
  Alcotest.(check int) "int/float mixed" 0
    (Value.compare (vi 3) (vf 3.0));
  Alcotest.(check bool) "int < float" true (Value.compare (vi 3) (vf 3.5) < 0);
  Alcotest.(check bool) "string order" true
    (Value.compare (vs "abc") (vs "abd") < 0)

let test_hash_consistent_with_equal () =
  Alcotest.(check int) "int/float hash agree" (Value.hash (vi 7))
    (Value.hash (vf 7.0));
  (* the int fast path (no intermediate float) must keep the invariant
     hash (Int n) = hash (Float (float_of_int n)) for every n — pin it
     across the 2^53 exactness boundary where the two paths diverge
     internally, and for the raw hash_int/hash_float entry points *)
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "hash invariant at %d" n)
        (Value.hash (vi n))
        (Value.hash (vf (float_of_int n)));
      Alcotest.(check int)
        (Printf.sprintf "hash_int agrees at %d" n)
        (Value.hash (vi n))
        (Value.hash_int n))
    [
      0;
      1;
      -1;
      42;
      1_000_000;
      -1_000_000;
      0x1F_FFFF_FFFF_FFFF (* 2^53 - 1 *);
      0x20_0000_0000_0000 (* 2^53 *);
      0x20_0000_0000_0001 (* 2^53 + 1, inexact conversion *);
      max_int;
      min_int;
    ];
  Alcotest.(check int) "hash_float agrees" (Value.hash (vf 2.5))
    (Value.hash_float 2.5);
  Alcotest.(check int) "non-integral float stays on float path"
    (Value.hash (vf 0.5))
    (Value.hash_float 0.5)

(* Int against Float by exact value: around 2^53, where [float_of_int]
   rounds, and around 2^62, the edge of the int range, the order is a
   total preorder whose equality is an equivalence that hashes alike. *)
let p53 = 0x20_0000_0000_0000 and p62f = 4.611686018427387904e18

let boundary_values =
  List.concat_map
    (fun sign ->
      List.map (fun i -> vi (sign * i)) [ p53 - 1; p53; p53 + 1; p53 + 2 ]
      @ List.map
          (fun f -> vf (float_of_int sign *. f))
          [ 9007199254740992.; 9007199254740994.; p62f; p62f /. 2. ])
    [ 1; -1 ]
  @ [
      vi max_int;
      vi min_int;
      vi (max_int - 1);
      vf 4611686018427387392. (* the float below 2^62 *);
      vf nan;
      vf infinity;
      vf neg_infinity;
      vf 0.5;
      vf (-0.5);
      vi 0;
      vf (-0.0);
    ]

let test_exact_numeric_order () =
  let c = Value.compare in
  Alcotest.(check bool) "2^53 + 1 > the float 2^53" true
    (c (vi (p53 + 1)) (vf 9007199254740992.) > 0);
  Alcotest.(check bool) "the float 2^53 < 2^53 + 1" true
    (c (vf 9007199254740992.) (vi (p53 + 1)) < 0);
  Alcotest.(check int) "2^53 = the float 2^53" 0
    (c (vi p53) (vf 9007199254740992.));
  Alcotest.(check int) "min_int = the float -2^62" 0
    (c (vi min_int) (vf (-.p62f)));
  Alcotest.(check bool) "max_int < the float 2^62" true
    (c (vi max_int) (vf p62f) < 0);
  Alcotest.(check bool) "NaN below min_int" true
    (c (vf nan) (vi min_int) < 0);
  Alcotest.(check bool) "-0.5 < 0 < 0.5" true
    (c (vf (-0.5)) (vi 0) < 0 && c (vi 0) (vf 0.5) < 0);
  Alcotest.(check bool) "-1 < -0.5" true (c (vi (-1)) (vf (-0.5)) < 0);
  let vs = boundary_values in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = c a b and ba = c b a in
          if (ab = 0) <> (ba = 0) || (ab > 0) <> (ba < 0) then
            Alcotest.failf "%s vs %s: not antisymmetric" (Value.to_string a)
              (Value.to_string b);
          if ab = 0 && Value.hash a <> Value.hash b then
            Alcotest.failf "%s = %s hash apart" (Value.to_string a)
              (Value.to_string b);
          List.iter
            (fun d ->
              if c a b <= 0 && c b d <= 0 && c a d > 0 then
                Alcotest.failf "%s <= %s <= %s, yet %s > %s"
                  (Value.to_string a) (Value.to_string b) (Value.to_string d)
                  (Value.to_string a) (Value.to_string d);
              if c a b = 0 && c b d = 0 && c a d <> 0 then
                Alcotest.failf "%s = %s = %s, yet %s <> %s"
                  (Value.to_string a) (Value.to_string b) (Value.to_string d)
                  (Value.to_string a) (Value.to_string d))
            vs)
        vs)
    vs

(* SELECT DISTINCT over 2^53, the float 2^53 and 2^53 + 1 keeps the same
   rows whichever of the first two is inserted first *)
let test_distinct_order () =
  let distinct first second =
    let cat = Catalog.create () in
    let exec sql =
      match Nra.exec cat sql with
      | Ok r -> r
      | Error m -> Alcotest.fail (sql ^ ": " ^ m)
    in
    ignore (exec "create table t (id int, x float, primary key (id))");
    ignore
      (exec
         (Printf.sprintf "insert into t values (1, %s), (2, %s), (3, %s)"
            first second "9007199254740993"));
    match exec "select distinct x from t" with
    | Nra.Rows r -> Relation.sorted_rows r
    | _ -> Alcotest.fail "expected rows"
  in
  let a = distinct "9007199254740992" "9007199254740992.0"
  and b = distinct "9007199254740992.0" "9007199254740992" in
  Alcotest.(check int) "two rows" 2 (List.length a);
  Alcotest.(check bool) "same rows in both orders" true
    (List.equal Row.equal a b)

let test_cmp3 () =
  Alcotest.(check (option int)) "null lhs" None (Value.cmp3 Value.Null (vi 1));
  Alcotest.(check (option int)) "null rhs" None (Value.cmp3 (vi 1) Value.Null);
  Alcotest.(check (option int)) "lt" (Some (-1)) (Value.cmp3 (vi 1) (vi 2))

let test_arith () =
  Alcotest.check value_testable "add" (vi 5) (Value.add (vi 2) (vi 3));
  Alcotest.check value_testable "add null" Value.Null
    (Value.add (vi 2) Value.Null);
  Alcotest.check value_testable "mixed promotes" (vf 5.5)
    (Value.add (vi 2) (vf 3.5));
  Alcotest.check value_testable "div by zero is null" Value.Null
    (Value.div (vi 2) (vi 0));
  Alcotest.check value_testable "neg" (vi (-2)) (Value.neg (vi 2));
  Alcotest.check value_testable "date + days" (Value.Date 40)
    (Value.add (Value.Date 10) (vi 30));
  Alcotest.check value_testable "days + date" (Value.Date 40)
    (Value.add (vi 30) (Value.Date 10));
  Alcotest.check value_testable "date - days" (Value.Date 5)
    (Value.sub (Value.Date 10) (vi 5));
  Alcotest.check value_testable "date - date" (vi 7)
    (Value.sub (Value.Date 17) (Value.Date 10));
  Alcotest.check value_testable "date + null" Value.Null
    (Value.add (Value.Date 10) Value.Null);
  Alcotest.(check_raises) "string arithmetic"
    (Value.Type_error "arithmetic on non-numeric values (string, int)")
    (fun () -> ignore (Value.add (vs "x") (vi 1)))

let test_dates () =
  (match Value.date_of_string "1994-03-17" with
  | Value.Date d ->
      Alcotest.(check string) "roundtrip" "1994-03-17" (Value.string_of_date d)
  | _ -> Alcotest.fail "not a date");
  let d1 = Value.date_of_string "1992-01-01"
  and d2 = Value.date_of_string "1998-08-02" in
  (match (d1, d2) with
  | Value.Date a, Value.Date b ->
      Alcotest.(check int) "TPC-H span" 2405 (b - a)
  | _ -> Alcotest.fail "not dates");
  Alcotest.(check bool) "epoch" true
    (Value.equal (Value.date_of_string "1970-01-01") (Value.Date 0));
  List.iter
    (fun bad ->
      match Value.date_of_string bad with
      | exception Value.Type_error _ -> ()
      | _ -> Alcotest.fail ("accepted malformed date " ^ bad))
    [ "1994/03/17"; "94-03-17"; "1994-13-01"; "1994-00-10"; "abcd-ef-gh" ]

let prop_compare_total =
  QCheck.Test.make ~name:"compare is antisymmetric"
    QCheck.(pair arb_value arb_value)
    (fun (a, b) ->
      let c1 = Value.compare a b and c2 = Value.compare b a in
      (c1 = 0) = (c2 = 0) && (c1 > 0) = (c2 < 0))

let prop_compare_transitive =
  QCheck.Test.make ~name:"compare is transitive"
    QCheck.(triple arb_value arb_value arb_value)
    (fun (a, b, c) ->
      let le x y = Value.compare x y <= 0 in
      if le a b && le b c then le a c else true)

let prop_equal_hash =
  QCheck.Test.make ~name:"equal values hash equally"
    QCheck.(pair arb_value arb_value)
    (fun (a, b) ->
      if Value.equal a b then Value.hash a = Value.hash b else true)

let prop_date_roundtrip =
  QCheck.Test.make ~name:"date string roundtrip"
    QCheck.(int_range (-200_000) 200_000)
    (fun d ->
      match Value.date_of_string (Value.string_of_date d) with
      | Value.Date d' -> d = d'
      | _ -> false)

let () =
  Alcotest.run "value"
    [
      ( "basics",
        [
          Alcotest.test_case "is_null" `Quick test_is_null;
          Alcotest.test_case "compare" `Quick test_compare_basics;
          Alcotest.test_case "hash/equal" `Quick
            test_hash_consistent_with_equal;
          Alcotest.test_case "exact int/float order" `Quick
            test_exact_numeric_order;
          Alcotest.test_case "distinct across 2^53" `Quick
            test_distinct_order;
          Alcotest.test_case "cmp3" `Quick test_cmp3;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "dates" `Quick test_dates;
        ] );
      ( "properties",
        [
          qtest prop_compare_total;
          qtest prop_compare_transitive;
          qtest prop_equal_hash;
          qtest prop_date_roundtrip;
        ] );
    ]
