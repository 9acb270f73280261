(* The linking selection is one fold over each group's elements.  This
   suite checks it differentially: every link operator (EXISTS, NOT
   EXISTS, IN, NOT IN, θ SOME, θ ALL, scalar) against a plain linked
   attribute and against every aggregate (COUNT star, COUNT, SUM over
   ints and over floats, AVG, MIN, MAX), at a leaf site and at a site
   decided under a negated parent (σ̄ padding, runs of equal padded
   outer rows), compared CSV for CSV with the naive reference evaluator
   under the nested relational strategies and magic, serial and at two
   domains under an eight-frame budget.  The data holds an empty group,
   an all-NULL group, a group whose float sum depends on element order,
   a one-row group and a NULL correlation key.

   EXISTS over an aggregate subquery gets SQL's answer from the engine
   and the reference alike: the aggregate's one row always exists, so
   EXISTS holds and NOT EXISTS fails, empty group or not. *)

open Nra
open Test_support
module Ref = Test_support.Reference_eval

let strategies =
  [ Nra.Nra_original; Nra.Nra_optimized; Nra.Nra_full; Nra.Magic ]

let vf f = Value.Float f

(* oo rows 0-6; ii groups by oref:
   0: c {1, 2, 3}, g {1.0, 1e16, -1e16} — the float sum is 0 in build
      order, 1 in reverse;
   1: c {NULL, NULL}, g {NULL, NULL} — all-NULL;
   2: no rows — empty;
   3: c {2}, g {2.5} — one row;
   4: c {5, NULL, 1}, g {0.5, NULL, 0.25};
   5: c {3, 3}, g {1.5, 1.5};
   6: no rows; plus a row whose oref is NULL. *)
let catalog () =
  let cat = Catalog.create () in
  Catalog.register cat
    (Table.create ~name:"oo" ~key:[ "oid" ]
       [ col "oid" Ttype.Int; col "a" Ttype.Int; col "f" Ttype.Float ]
       [|
         [| vi 0; vi 2; vf 0.0 |];
         [| vi 1; vi 0; vf 0.0 |];
         [| vi 2; vi 0; vnull |];
         [| vi 3; vi 2; vf 2.5 |];
         [| vi 4; vnull; vf 0.75 |];
         [| vi 5; vi 3; vf 3.0 |];
         [| vi 6; vi 1; vf 1.0 |];
       |]);
  let ii =
    [
      (0, 1, vf 1.0);
      (0, 2, vf 1e16);
      (0, 3, vf (-1e16));
      (1, -1, vnull);
      (1, -1, vnull);
      (3, 2, vf 2.5);
      (4, 5, vf 0.5);
      (4, -1, vnull);
      (4, 1, vf 0.25);
      (5, 3, vf 1.5);
      (5, 3, vf 1.5);
      (-1, 4, vf 4.0);
    ]
  in
  let opt i = if i < 0 then vnull else vi i in
  Catalog.register cat
    (Table.create ~name:"ii" ~key:[ "iid" ]
       [
         col "iid" Ttype.Int;
         col "oref" Ttype.Int;
         col "c" Ttype.Int;
         col "g" Ttype.Float;
       ]
       (Array.of_list
          (List.mapi
             (fun i (oref, c, g) -> [| vi i; opt oref; opt c; g |])
             ii)));
  cat

let ops = [ "="; "<>"; "<"; "<="; ">"; ">=" ]

(* the select item, and whether it is the float column *)
let selects =
  [
    ("c", false);
    ("count(*)", false);
    ("count(c)", false);
    ("sum(c)", false);
    ("sum(g)", true);
    ("avg(c)", false);
    ("min(c)", false);
    ("max(c)", false);
  ]

(* [(scalar, link)]: [link lhs sub] for every operator; [scalar] marks
   the raw scalar comparison *)
let links =
  [
    (false, fun _ sub -> "exists " ^ sub);
    (false, fun _ sub -> "not exists " ^ sub);
    (false, fun lhs sub -> Printf.sprintf "%s in %s" lhs sub);
    (false, fun lhs sub -> Printf.sprintf "%s not in %s" lhs sub);
  ]
  @ List.concat_map
      (fun op ->
        [
          (false, fun lhs sub -> Printf.sprintf "%s %s some %s" lhs op sub);
          (false, fun lhs sub -> Printf.sprintf "%s %s all %s" lhs op sub);
          (true, fun lhs sub -> Printf.sprintf "%s %s %s" lhs op sub);
        ])
      ops

let queries () =
  List.concat_map
    (fun (sel, float) ->
      List.concat_map
        (fun (scalar, link) ->
          (* a raw scalar subquery must return at most one row per
             group, so its plain form correlates on the inner key *)
          let one_row = scalar && sel = "c" in
          let lhs = if float then "oo.f" else "oo.a" in
          let corr =
            if one_row then "ii.iid = oo.oid" else "ii.oref = oo.oid"
          in
          let leaf =
            Printf.sprintf "select oid from oo where %s"
              (link lhs
                 (Printf.sprintf "(select %s from ii where %s)" sel corr))
          in
          (* decided under NOT EXISTS: a failing i1 row is padded, and
             the padded rows of one oo row form a run of equal rows at
             the sibling site *)
          let lhs2 = if float then "i1.g" else "i1.c" in
          let corr2 =
            if one_row then "ii.iid = i1.iid + 1"
            else "ii.oref = i1.oref and ii.iid <> i1.iid"
          in
          let padded =
            Printf.sprintf
              "select oid from oo where not exists (select * from ii i1 \
               where i1.oref = oo.oid and %s and exists (select * from ii \
               i3 where i3.oref = oo.oid))"
              (link lhs2
                 (Printf.sprintf "(select %s from ii where %s)" sel corr2))
          in
          [ leaf; padded ])
        links)
    selects

let configs =
  [ ("serial", 0, Engine_config.Off); ("domains=2 frames=8", 2, Pages 8) ]

let test_differential () =
  let cat = catalog () in
  let cases =
    List.map
      (fun sql ->
        match Ref.sorted_csv cat sql with
        | Ok csv -> (sql, csv)
        | Error m -> Alcotest.fail (sql ^ ": reference: " ^ m))
      (queries ())
  in
  Alcotest.(check bool) "a non-trivial corpus" true (List.length cases > 300);
  List.iter
    (fun (name, domains, frames) ->
      with_config (fun c -> { c with domains; frames }) @@ fun () ->
      List.iter
        (fun (sql, expect) ->
          List.iter
            (fun s ->
              match Nra.query ~strategy:s cat sql with
              | Error m ->
                  Alcotest.fail
                    (Printf.sprintf "%s (%s, %s): %s" sql
                       (Nra.strategy_to_string s) name m)
              | Ok rel ->
                  let got = Ref.relation_csv rel in
                  if got <> expect then
                    Alcotest.fail
                      (Printf.sprintf
                         "%s: %s disagrees with the reference (%s)\n\
                          reference:\n\
                          %s\n\
                          got:\n\
                          %s"
                         sql (Nra.strategy_to_string s) name expect got))
            strategies)
        cases)
    configs

(* a scalar subquery with two rows in a group fails with the same text
   under every strategy, and the reference's *)
let test_scalar_error () =
  let cat = catalog () in
  List.iter
    (fun sql ->
      let expect =
        match Ref.sorted_csv cat sql with
        | Error m -> m
        | Ok _ -> Alcotest.fail (sql ^ ": the reference did not fail")
      in
      Alcotest.(check string) "the reference's text"
        "scalar subquery returned more than one row" expect;
      List.iter
        (fun s ->
          match Nra.query ~strategy:s cat sql with
          | Ok _ ->
              Alcotest.fail
                (Printf.sprintf "%s: %s returned rows" sql
                   (Nra.strategy_to_string s))
          | Error m ->
              Alcotest.(check string)
                (Printf.sprintf "%s: %s" (Nra.strategy_to_string s) sql)
                expect m)
        all_strategies)
    [
      "select oid from oo where a = (select c from ii where ii.oref = \
       oo.oid)";
      "select oid from oo where not exists (select * from ii i1 where \
       i1.oref = oo.oid and i1.c > (select c from ii where ii.oref = \
       i1.oref))";
    ]

(* SQL's answer, pinned: every oo row for EXISTS over an aggregate
   (group 2, 6 and the NULL-keyed rows included), none for NOT EXISTS *)
let test_exists_aggregate () =
  let cat = catalog () in
  let all = "0\n1\n2\n3\n4\n5\n6" in
  List.iter
    (fun (sql, expect) ->
      (match Ref.sorted_csv cat sql with
      | Ok csv -> Alcotest.(check string) ("reference: " ^ sql) expect csv
      | Error m -> Alcotest.fail (sql ^ ": reference: " ^ m));
      List.iter
        (fun s ->
          match Nra.query ~strategy:s cat sql with
          | Ok rel ->
              Alcotest.(check string)
                (Nra.strategy_to_string s ^ ": " ^ sql)
                expect (Ref.relation_csv rel)
          | Error m -> Alcotest.fail (sql ^ ": " ^ m))
        all_strategies)
    [
      ("select oid from oo where exists (select max(c) from ii where \
        ii.oref = oo.oid)", all);
      ("select oid from oo where exists (select count(*) from ii where \
        ii.oref = oo.oid and ii.c > 100)", all);
      ("select oid from oo where not exists (select sum(g) from ii where \
        ii.oref = oo.oid)", "");
    ]

let () =
  Alcotest.run "link_fold"
    [
      ( "fold vs reference",
        [
          Alcotest.test_case "every link op x every aggregate" `Quick
            test_differential;
          Alcotest.test_case "scalar two-row error" `Quick test_scalar_error;
          Alcotest.test_case "EXISTS over an aggregate is TRUE" `Quick
            test_exists_aggregate;
        ] );
    ]
