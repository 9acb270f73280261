open Nra
open Test_support

let schema =
  Schema.of_columns
    [
      Schema.column ~table:"r" "a" Ttype.Int;
      Schema.column ~table:"r" "b" Ttype.Int;
      Schema.column ~table:"s" "a" Ttype.Int;
      Schema.column ~table:"s" "c" ~not_null:true Ttype.String;
    ]

let test_find () =
  Alcotest.(check int) "qualified" 2 (Schema.find schema ~table:"s" "a");
  Alcotest.(check int) "unqualified unique" 1 (Schema.find schema "b");
  Alcotest.check_raises "ambiguous" (Schema.Ambiguous "a") (fun () ->
      ignore (Schema.find schema "a"));
  Alcotest.check_raises "missing" (Schema.Not_found_col "zz") (fun () ->
      ignore (Schema.find schema "zz"));
  Alcotest.check_raises "missing qualified" (Schema.Not_found_col "r.c")
    (fun () -> ignore (Schema.find schema ~table:"r" "c"))

let test_find_opt_mem () =
  Alcotest.(check (option int)) "opt hit" (Some 3)
    (Schema.find_opt schema ~table:"s" "c");
  Alcotest.(check (option int)) "opt ambiguous" None
    (Schema.find_opt schema "a");
  Alcotest.(check bool) "mem" true (Schema.mem schema "b");
  Alcotest.(check bool) "not mem" false (Schema.mem schema "zz")

let test_append_project_rename () =
  let s2 = Schema.append schema schema in
  Alcotest.(check int) "append arity" 8 (Schema.arity s2);
  let p = Schema.project schema [ 3; 0 ] in
  Alcotest.(check string) "project order" "s.c"
    (Schema.qualified_name (Schema.col p 0));
  let r = Schema.rename_table "x" schema in
  Alcotest.(check string) "rename" "x.a"
    (Schema.qualified_name (Schema.col r 0));
  Alcotest.(check bool) "equal_names reflexive" true
    (Schema.equal_names schema schema);
  Alcotest.(check bool) "renamed differs" false
    (Schema.equal_names schema r)

let test_row_ops () =
  let row = [| vi 1; vi 2; vi 3; vnull |] in
  Alcotest.(check bool) "project" true
    (Row.equal [| vi 3; vi 1 |] (Row.project row [ 2; 0 ]));
  Alcotest.(check bool) "concat" true
    (Row.equal [| vi 1; vi 2 |] (Row.concat [| vi 1 |] [| vi 2 |]));
  Alcotest.(check bool) "nulls" true (Row.equal [| vnull; vnull |] (Row.nulls 2));
  Alcotest.(check bool) "has_null_on hit" true
    (Row.has_null_on [| 3 |] row);
  Alcotest.(check bool) "has_null_on miss" false
    (Row.has_null_on [| 0; 1; 2 |] row);
  Alcotest.(check int) "compare_on equal" 0
    (Row.compare_on [| 0; 1 |] row [| vi 1; vi 2; vi 99; vi 0 |]);
  Alcotest.(check bool) "compare shorter first" true
    (Row.compare [| vi 1 |] [| vi 1; vi 2 |] < 0);
  Alcotest.(check int) "hash_on consistency"
    (Row.hash_on [| 0; 2 |] row)
    (Row.hash_on [| 0; 1 |] [| vi 1; vi 3; vi 0; vi 0 |])

(* the keyed operations run once per row in hash probes and once per
   comparison in sorts: none of them may allocate *)
let test_keyed_ops_allocate_nothing () =
  let a = [| vi 1; Value.String "x"; Value.Float 2.5; vnull |] in
  let b = [| vi 1; Value.String "x"; Value.Float 2.5; vi 0 |] in
  let idxs = [| 3; 0; 1; 2 |] in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    sink :=
      !sink + Row.compare_on idxs a b + Row.hash_on idxs a + Row.compare a b
      + Row.hash b
      + Bool.to_int (Row.equal_on idxs a b)
      + Bool.to_int (Row.has_null_on idxs b)
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  if words > 100.0 then
    Alcotest.failf "keyed row operations allocated %.0f words in 1000 rounds"
      words

let qtest = QCheck_alcotest.to_alcotest

let arb_row =
  QCheck.(
    map Array.of_list
      (small_list
         (oneof [ always Value.Null; map (fun i -> Value.Int i) small_int ])))

let prop_row_compare_consistent_hash =
  QCheck.Test.make ~name:"equal rows hash equally"
    (QCheck.pair arb_row arb_row)
    (fun (a, b) -> if Row.equal a b then Row.hash a = Row.hash b else true)

(* partition layouts and spill page counts depend on these exact
   values *)
let prop_hash_is_the_fold =
  QCheck.Test.make ~name:"hash and hash_on are the 31-fold from 17"
    arb_row (fun row ->
      let fold = Array.fold_left (fun h v -> (h * 31) + Value.hash v) 17 in
      let n = Array.length row in
      let rev = Array.init n (fun i -> n - 1 - i) in
      Row.hash row = fold row
      && Row.hash_on rev row = fold (Array.map (fun i -> row.(i)) rev))

let prop_project_preserves =
  QCheck.Test.make ~name:"projection on all positions is identity" arb_row
    (fun row ->
      Row.equal row (Row.project row (List.init (Array.length row) Fun.id)))

let () =
  Alcotest.run "schema_row"
    [
      ( "schema",
        [
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "find_opt/mem" `Quick test_find_opt_mem;
          Alcotest.test_case "append/project/rename" `Quick
            test_append_project_rename;
        ] );
      ( "row",
        [
          Alcotest.test_case "operations" `Quick test_row_ops;
          Alcotest.test_case "keyed operations allocate nothing" `Quick
            test_keyed_ops_allocate_nothing;
        ] );
      ( "properties",
        [
          qtest prop_row_compare_consistent_hash;
          qtest prop_hash_is_the_fold;
          qtest prop_project_preserves;
        ] );
    ]
