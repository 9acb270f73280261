open Nra
open Test_support
module T = Three_valued

let qtest = QCheck_alcotest.to_alcotest

let arb_t3 = QCheck.oneofl [ T.True; T.False; T.Unknown ]

let all3 = [ T.True; T.False; T.Unknown ]

let test_not () =
  Alcotest.check t3 "not true" T.False (T.not_ T.True);
  Alcotest.check t3 "not false" T.True (T.not_ T.False);
  Alcotest.check t3 "not unknown" T.Unknown (T.not_ T.Unknown)

(* the full Kleene truth tables *)
let test_and_table () =
  let expect = function
    | T.False, _ | _, T.False -> T.False
    | T.True, T.True -> T.True
    | _ -> T.Unknown
  in
  List.iter
    (fun a ->
      List.iter
        (fun b -> Alcotest.check t3 "and" (expect (a, b)) (T.and_ a b))
        all3)
    all3

let test_or_table () =
  let expect = function
    | T.True, _ | _, T.True -> T.True
    | T.False, T.False -> T.False
    | _ -> T.Unknown
  in
  List.iter
    (fun a ->
      List.iter
        (fun b -> Alcotest.check t3 "or" (expect (a, b)) (T.or_ a b))
        all3)
    all3

let test_conj_disj () =
  Alcotest.check t3 "conj []" T.True (T.conj []);
  Alcotest.check t3 "disj []" T.False (T.disj []);
  Alcotest.check t3 "conj with unknown" T.Unknown
    (T.conj [ T.True; T.Unknown; T.True ]);
  Alcotest.check t3 "conj absorbs false" T.False
    (T.conj [ T.True; T.Unknown; T.False ]);
  Alcotest.check t3 "disj absorbs true" T.True
    (T.disj [ T.False; T.Unknown; T.True ])

let test_to_bool () =
  Alcotest.(check bool) "true" true (T.to_bool T.True);
  Alcotest.(check bool) "false" false (T.to_bool T.False);
  Alcotest.(check bool) "unknown is not selected" false (T.to_bool T.Unknown)

let test_cmp () =
  Alcotest.check t3 "5 > 3" T.True (T.cmp T.Gt (vi 5) (vi 3));
  Alcotest.check t3 "5 > null" T.Unknown (T.cmp T.Gt (vi 5) Value.Null);
  Alcotest.check t3 "null = null is unknown" T.Unknown
    (T.cmp T.Eq Value.Null Value.Null);
  Alcotest.check t3 "int vs float" T.True (T.cmp T.Le (vi 3) (vf 3.0));
  Alcotest.check t3 "neq" T.True (T.cmp T.Neq (vs "a") (vs "b"))

(* one value of every constructor, NULL included, and an Int/Float pair
   that compares equal across the two *)
let cmp_values =
  [|
    Value.Null; Value.Bool true; vi 3; vf 3.0; vf 2.5; vs "x"; Value.Date 100;
  |]

let cmp_ops = [| T.Eq; T.Neq; T.Lt; T.Le; T.Gt; T.Ge |]

(* the truth table: Unknown with a NULL side, else the sign of
   [Value.compare] *)
let test_cmp_table () =
  Array.iter
    (fun op ->
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              let expected =
                match Value.cmp3 a b with
                | None -> T.Unknown
                | Some c ->
                    T.of_bool
                      (match op with
                      | T.Eq -> c = 0
                      | T.Neq -> c <> 0
                      | T.Lt -> c < 0
                      | T.Le -> c <= 0
                      | T.Gt -> c > 0
                      | T.Ge -> c >= 0)
              in
              Alcotest.check t3
                (Format.asprintf "%a %s %a" Value.pp a (T.cmpop_to_string op)
                   Value.pp b)
                expected (T.cmp op a b))
            cmp_values)
        cmp_values)
    cmp_ops

(* every fold verdict and row-at-a-time comparison goes through
   [T.cmp]: it must not box the comparison's sign *)
let test_cmp_no_alloc () =
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          let words =
            words_per 10_000 (fun i ->
                ignore
                  (Sys.opaque_identity (T.cmp cmp_ops.(i mod 6) a b)))
          in
          if words >= 0.01 then
            Alcotest.failf "cmp %a %a allocates %.2f words per call" Value.pp
              a Value.pp b words)
        cmp_values)
    cmp_values

let test_negate_flip () =
  let ops = [ T.Eq; T.Neq; T.Lt; T.Le; T.Gt; T.Ge ] in
  List.iter
    (fun op ->
      Alcotest.(check bool)
        "negate is involutive" true
        (T.negate_op (T.negate_op op) = op);
      Alcotest.(check bool)
        "flip is involutive" true
        (T.flip_op (T.flip_op op) = op))
    ops;
  (* semantic checks on non-null values *)
  List.iter
    (fun op ->
      for a = -2 to 2 do
        for b = -2 to 2 do
          let v = T.cmp op (vi a) (vi b) in
          Alcotest.check t3 "negate_op complements"
            (T.not_ v)
            (T.cmp (T.negate_op op) (vi a) (vi b));
          Alcotest.check t3 "flip_op swaps" v
            (T.cmp (T.flip_op op) (vi b) (vi a))
        done
      done)
    ops

let prop_de_morgan =
  QCheck.Test.make ~name:"De Morgan" (QCheck.pair arb_t3 arb_t3)
    (fun (a, b) ->
      T.equal (T.not_ (T.and_ a b)) (T.or_ (T.not_ a) (T.not_ b))
      && T.equal (T.not_ (T.or_ a b)) (T.and_ (T.not_ a) (T.not_ b)))

let prop_commutative =
  QCheck.Test.make ~name:"and/or commute" (QCheck.pair arb_t3 arb_t3)
    (fun (a, b) ->
      T.equal (T.and_ a b) (T.and_ b a) && T.equal (T.or_ a b) (T.or_ b a))

let prop_associative =
  QCheck.Test.make ~name:"and/or associate"
    (QCheck.triple arb_t3 arb_t3 arb_t3)
    (fun (a, b, c) ->
      T.equal (T.and_ a (T.and_ b c)) (T.and_ (T.and_ a b) c)
      && T.equal (T.or_ a (T.or_ b c)) (T.or_ (T.or_ a b) c))

let prop_double_negation =
  QCheck.Test.make ~name:"double negation" arb_t3 (fun a ->
      T.equal (T.not_ (T.not_ a)) a)

let () =
  Alcotest.run "three_valued"
    [
      ( "tables",
        [
          Alcotest.test_case "not" `Quick test_not;
          Alcotest.test_case "and" `Quick test_and_table;
          Alcotest.test_case "or" `Quick test_or_table;
          Alcotest.test_case "conj/disj" `Quick test_conj_disj;
          Alcotest.test_case "to_bool" `Quick test_to_bool;
          Alcotest.test_case "cmp" `Quick test_cmp;
          Alcotest.test_case "cmp over every constructor pair" `Quick
            test_cmp_table;
          Alcotest.test_case "cmp allocates nothing" `Quick test_cmp_no_alloc;
          Alcotest.test_case "negate/flip" `Quick test_negate_flip;
        ] );
      ( "properties",
        [
          qtest prop_de_morgan;
          qtest prop_commutative;
          qtest prop_associative;
          qtest prop_double_negation;
        ] );
    ]
