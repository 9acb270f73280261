(* Metamorphic testing: SQL-level identities that must hold on any
   database, checked on randomized tables built through the DDL/DML
   path.  These are an oracle orthogonal to the cross-executor
   equivalence suite — they catch bugs all executors could share. *)

open Nra

let rng = Tpch.Prng.create 0xC0FFEEL

let exec cat sql =
  match Nra.exec cat sql with
  | Ok r -> r
  | Error m -> Alcotest.fail (Printf.sprintf "%s: %s" sql m)

let card cat sql =
  match exec cat sql with
  | Nra.Rows r -> Relation.cardinality r
  | _ -> Alcotest.fail "expected rows"

let scalar cat sql =
  match exec cat sql with
  | Nra.Rows r when Relation.cardinality r = 1 -> (Relation.rows r).(0).(0)
  | _ -> Alcotest.fail ("expected a single value from " ^ sql)

(* a fresh random table through CREATE + INSERT *)
let random_table cat name rows =
  ignore
    (exec cat
       (Printf.sprintf
          "create table %s (id int, a int, b int, primary key (id))" name));
  let values =
    List.init rows (fun i ->
        let v () =
          if Tpch.Prng.bool rng 0.2 then "null"
          else string_of_int (Tpch.Prng.int rng 8)
        in
        Printf.sprintf "(%d, %s, %s)" i (v ()) (v ()))
  in
  if rows > 0 then
    ignore
      (exec cat
         (Printf.sprintf "insert into %s values %s" name
            (String.concat ", " values)))

let fresh_db () =
  let cat = Catalog.create () in
  random_table cat "t" (1 + Tpch.Prng.int rng 40);
  random_table cat "u" (Tpch.Prng.int rng 30);
  cat

let random_pred () =
  let cmp () = [| "="; "<>"; "<"; "<="; ">"; ">=" |].(Tpch.Prng.int rng 6) in
  let k () = string_of_int (Tpch.Prng.int rng 8) in
  match Tpch.Prng.int rng 5 with
  | 0 -> Printf.sprintf "a %s %s" (cmp ()) (k ())
  | 1 -> Printf.sprintf "a %s b" (cmp ())
  | 2 -> "a is null"
  | 3 -> Printf.sprintf "a between %s and %s" (k ()) (k ())
  | _ -> Printf.sprintf "a %s %s and b is not null" (cmp ()) (k ())

let rounds = 40

let test_count_star_is_cardinality () =
  for _ = 1 to rounds do
    let cat = fresh_db () in
    let p = random_pred () in
    let n = card cat (Printf.sprintf "select id from t where %s" p) in
    let c = scalar cat (Printf.sprintf "select count(*) from t where %s" p) in
    Alcotest.check Test_support.value_testable p (Value.Int n) c
  done

let test_excluded_middle_under_3vl () =
  (* |P| + |NOT P| + |unknown P| = |t|, where the unknown rows are those
     selected by neither *)
  for _ = 1 to rounds do
    let cat = fresh_db () in
    let p = random_pred () in
    let total = card cat "select id from t" in
    let yes = card cat (Printf.sprintf "select id from t where %s" p) in
    let no = card cat (Printf.sprintf "select id from t where not (%s)" p) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d + %d <= %d" p yes no total)
      true
      (yes + no <= total);
    (* the remainder is exactly the rows where the predicate is unknown:
       adding IS-NULL guards must recover them *)
    let unknown =
      card cat
        (Printf.sprintf
           "select id from t where (a is null or b is null) and id not in \
            (select id from t where %s) and id not in (select id from t \
            where not (%s))"
           p p)
    in
    Alcotest.(check int) "partition" total (yes + no + unknown)
  done

let test_group_counts_sum_to_total () =
  for _ = 1 to rounds do
    let cat = fresh_db () in
    let p = random_pred () in
    let total = card cat (Printf.sprintf "select id from t where %s" p) in
    let summed =
      scalar cat
        (Printf.sprintf
           "with g as (select a, count(*) as n from t where %s group by a) \
            select sum(n) from g"
           p)
    in
    let expected = if total = 0 then Value.Null else Value.Int total in
    Alcotest.check Test_support.value_testable "sum of group counts"
      expected summed
  done

let test_distinct_and_limit_bounds () =
  for _ = 1 to rounds do
    let cat = fresh_db () in
    let all = card cat "select a from t" in
    let distinct = card cat "select distinct a from t" in
    Alcotest.(check bool) "distinct <= all" true (distinct <= all);
    let k = Tpch.Prng.int rng 10 in
    let limited = card cat (Printf.sprintf "select a from t limit %d" k) in
    Alcotest.(check int) "limit" (min k all) limited;
    let ordered = card cat "select a from t order by a desc" in
    Alcotest.(check int) "order by permutes" all ordered
  done

let test_setop_cardinalities () =
  for _ = 1 to rounds do
    let cat = fresh_db () in
    let a = card cat "select a from t" in
    let b = card cat "select a from u" in
    Alcotest.(check int) "union all"
      (a + b)
      (card cat "select a from t union all select a from u");
    let inter = card cat "select a from t intersect all select a from u" in
    let except = card cat "select a from t except all select a from u" in
    Alcotest.(check int) "A = (A∩B) + (A−B) as bags" a (inter + except);
    let union = card cat "select a from t union select a from u" in
    let du = card cat "select distinct a from t" in
    let dv = card cat "select distinct a from u" in
    Alcotest.(check bool) "|A∪B| <= |A|+|B| (sets)" true (union <= du + dv);
    Alcotest.(check bool) "|A∪B| >= max" true (union >= max du dv)
  done

let test_in_vs_exists () =
  (* x IN (select y …) ≡ EXISTS (select * … where y = x) — note the
     equivalence holds in 3VL for the WHERE-filtered result *)
  for _ = 1 to rounds do
    let cat = fresh_db () in
    let via_in = card cat "select id from t where a in (select a from u)" in
    let via_exists =
      card cat
        "select id from t where exists (select * from u u2 where u2.a = t.a)"
    in
    Alcotest.(check int) "IN = EXISTS-with-equality" via_in via_exists;
    let via_not_in =
      card cat "select id from t where a not in (select a from u)"
    in
    (* NOT IN is stricter than NOT EXISTS when NULLs are around *)
    let via_not_exists =
      card cat
        "select id from t where not exists (select * from u u2 where u2.a \
         = t.a)"
    in
    Alcotest.(check bool) "NOT IN <= NOT EXISTS" true
      (via_not_in <= via_not_exists)
  done

let test_delete_is_complement () =
  for _ = 1 to rounds do
    let cat = fresh_db () in
    let p = random_pred () in
    let total = card cat "select id from t" in
    let matching = card cat (Printf.sprintf "select id from t where %s" p) in
    (match exec cat (Printf.sprintf "delete from t where %s" p) with
    | Nra.Count n -> Alcotest.(check int) "delete count" matching n
    | _ -> Alcotest.fail "expected count");
    Alcotest.(check int) "survivors" (total - matching)
      (card cat "select id from t")
  done

(* ---------- type-JA differential oracle ----------

   Seeded random aggregate-linking queries (IN / NOT IN / θ ANY / θ ALL
   / θ scalar over COUNT / SUM / AVG / MIN / MAX subqueries, correlated
   and not) checked byte-for-byte against the naive tuple-at-a-time
   reference evaluator — across every strategy plus Auto, across domain
   counts and frame budgets, with seeded fault injection on.  The
   reference re-runs the subquery per outer tuple by lexical scoping
   and shares nothing with the nest-then-link pipeline under test. *)

module Ref = Test_support.Reference_eval

let ja_rng = Tpch.Prng.create 0x1A5EEDL

let ja_catalog () =
  (* built directly (not through DDL) so hundreds of small catalogs are
     cheap; the DDL path is exercised by the identity tests above *)
  let v_opt bound =
    if Tpch.Prng.bool ja_rng 0.25 then Value.Null
    else Value.Int (Tpch.Prng.int ja_rng bound)
  in
  let cat = Catalog.create () in
  Catalog.register cat
    (Table.create ~name:"oo" ~key:[ "oid" ]
       [
         Schema.column "oid" Ttype.Int;
         Schema.column "a" Ttype.Int;
         Schema.column "b" Ttype.Int;
       ]
       (Array.init 8 (fun i -> [| Value.Int i; v_opt 6; v_opt 6 |])));
  Catalog.register cat
    (Table.create ~name:"ii" ~key:[ "iid" ]
       [
         Schema.column "iid" Ttype.Int;
         Schema.column "c" Ttype.Int;
         Schema.column "d" Ttype.Int;
         Schema.column "oref" Ttype.Int;
       ]
       (Array.init 10 (fun i -> [| Value.Int i; v_opt 6; v_opt 6; v_opt 8 |])));
  cat

let ja_query () =
  let cmp () = [| "="; "<>"; "<"; "<="; ">"; ">=" |].(Tpch.Prng.int ja_rng 6) in
  let k () = Tpch.Prng.int ja_rng 6 in
  let agg =
    match Tpch.Prng.int ja_rng 7 with
    | 0 -> "count(*)"
    | 1 -> "count(ii.c)"
    | 2 -> "sum(ii.c)"
    | 3 -> "avg(ii.c)"
    | 4 -> "min(ii.c)"
    | 5 -> "max(ii.c)"
    | _ -> "max(ii.c + ii.d)" (* expression aggregate argument *)
  in
  let corr =
    match Tpch.Prng.int ja_rng 4 with
    | 0 | 1 -> Some "ii.oref = oo.oid" (* equality correlation *)
    | 2 -> Some "ii.c <> oo.a" (* non-equality correlation *)
    | _ -> None (* uncorrelated *)
  in
  let local =
    match Tpch.Prng.int ja_rng 4 with
    | 0 -> Some (Printf.sprintf "ii.d %s %d" (cmp ()) (k ()))
    | 1 -> Some "ii.d is not null"
    | 2 -> Some (Printf.sprintf "ii.d between %d and %d" (k ()) (2 + k ()))
    | _ -> None
  in
  let where =
    match List.filter_map Fun.id [ corr; local ] with
    | [] -> ""
    | cs -> " where " ^ String.concat " and " cs
  in
  let sub = Printf.sprintf "(select %s from ii%s)" agg where in
  let lhs =
    match Tpch.Prng.int ja_rng 4 with
    | 0 -> "oo.b"
    | 1 -> "oo.a + 1" (* linking attribute is an expression *)
    | 2 -> string_of_int (k ()) (* constant, e.g. 0 IN (COUNT …) *)
    | _ -> "oo.a + oo.b"
  in
  let link =
    match Tpch.Prng.int ja_rng 5 with
    | 0 -> Printf.sprintf "%s in %s" lhs sub
    | 1 -> Printf.sprintf "%s not in %s" lhs sub
    | 2 -> Printf.sprintf "%s %s any %s" lhs (cmp ()) sub
    | 3 -> Printf.sprintf "%s %s all %s" lhs (cmp ()) sub
    | _ -> Printf.sprintf "%s %s %s" lhs (cmp ()) sub
  in
  Printf.sprintf "select oid from oo where oo.a %s %d and %s" (cmp ()) (k ())
    link

let ja_rounds = 210
let ja_domains = [ 0; 2; 4 ]
let ja_budgets = [ ("8", Engine_config.Pages 8); ("inf", Off) ]

let test_ja_differential () =
  (* the reference answers are config-independent: compute them once *)
  let cases =
    List.init ja_rounds (fun _ ->
        let cat = ja_catalog () in
        let sql = ja_query () in
        match Ref.sorted_csv cat sql with
        | Ok csv -> (cat, sql, csv)
        | Error m -> Alcotest.fail (sql ^ ": reference: " ^ m))
  in
  let run_config ~domains (budget_name, frames) =
    Nra.configure { (Nra.config ()) with domains; frames };
    (* seeded faults, reseeded per configuration: deterministic,
       absorbed by the retry loop *)
    Fault.configure ~seed:7 ~max_retries:6 ~alloc_probability:0.05 0.02;
    List.iter
      (fun (cat, sql, expect) ->
        List.iter
          (fun s ->
            match Nra.query ~strategy:s cat sql with
            | Error m ->
                Alcotest.fail
                  (Printf.sprintf "%s (%s, domains=%d, frames=%s): %s" sql
                     (Nra.strategy_to_string s) domains budget_name m)
            | Ok rel ->
                let got = Ref.relation_csv rel in
                if got <> expect then
                  Alcotest.fail
                    (Printf.sprintf
                       "%s: %s disagrees with the reference (domains=%d, \
                        frames=%s)\nreference:\n%s\ngot:\n%s"
                       sql (Nra.strategy_to_string s) domains budget_name
                       expect got))
          Test_support.all_strategies)
      cases
  in
  Test_support.with_config Fun.id (fun () ->
      List.iter
        (fun domains ->
          List.iter (fun budget -> run_config ~domains budget) ja_budgets)
        ja_domains)

let test_ja_singleton_identities () =
  (* an aggregate subquery always returns exactly one row, so the
     linking operators collapse: IN ≡ (=), θ ANY ≡ θ ALL ≡ θ scalar,
     and [0 IN (COUNT ...)] ≡ NOT EXISTS *)
  for _ = 1 to rounds do
    let cat = fresh_db () in
    let agg =
      [| "count(*)"; "count(u2.a)"; "sum(u2.a)"; "avg(u2.a)"; "min(u2.a)";
         "max(u2.a)" |].(Tpch.Prng.int rng 6)
    in
    let cmp = [| "="; "<>"; "<"; "<="; ">"; ">=" |].(Tpch.Prng.int rng 6) in
    let sub = Printf.sprintf "(select %s from u u2 where u2.b = t.b)" agg in
    let any = card cat (Printf.sprintf "select id from t where a %s any %s" cmp sub) in
    let all = card cat (Printf.sprintf "select id from t where a %s all %s" cmp sub) in
    let scl = card cat (Printf.sprintf "select id from t where a %s %s" cmp sub) in
    Alcotest.(check int) (sub ^ ": ANY = ALL over a singleton") any all;
    Alcotest.(check int) (sub ^ ": ALL = scalar over a singleton") all scl;
    let in_eq = card cat (Printf.sprintf "select id from t where a in %s" sub) in
    let eq = card cat (Printf.sprintf "select id from t where a = %s" sub) in
    Alcotest.(check int) (sub ^ ": IN = (=) over a singleton") in_eq eq;
    let via_count =
      card cat
        "select id from t where 0 in (select count(*) from u u2 where u2.a \
         = t.a)"
    in
    let via_not_exists =
      card cat
        "select id from t where not exists (select * from u u2 where u2.a \
         = t.a)"
    in
    Alcotest.(check int) "COUNT(*) = 0 is NOT EXISTS" via_count via_not_exists
  done

let () =
  Alcotest.run "metamorphic"
    [
      ( "identities",
        [
          Alcotest.test_case "count(*) = cardinality" `Quick
            test_count_star_is_cardinality;
          Alcotest.test_case "3VL excluded middle" `Quick
            test_excluded_middle_under_3vl;
          Alcotest.test_case "group counts sum" `Quick
            test_group_counts_sum_to_total;
          Alcotest.test_case "distinct/limit/order bounds" `Quick
            test_distinct_and_limit_bounds;
          Alcotest.test_case "set operation cardinalities" `Quick
            test_setop_cardinalities;
          Alcotest.test_case "IN vs EXISTS" `Quick test_in_vs_exists;
          Alcotest.test_case "delete complements select" `Quick
            test_delete_is_complement;
          Alcotest.test_case "JA singleton collapse" `Quick
            test_ja_singleton_identities;
        ] );
      ( "ja differential",
        [
          Alcotest.test_case "all strategies match the naive reference"
            `Quick test_ja_differential;
        ] );
    ]
