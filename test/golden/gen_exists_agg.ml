(* Prints the EXISTS-over-an-aggregate golden diffed by this
   directory's runtest rule: the nation/supplier queries below over
   TPC-H scale 0.001, under every strategy, one line per run with the
   result's row count and digest (or the error text).

   An aggregate without GROUP BY or HAVING returns exactly one row,
   even over an empty group, so EXISTS over it holds for all 25
   nations and NOT EXISTS for none; no supplier's balance exceeds
   100000, so the same EXISTS without the aggregate holds for none.  A
   subquery with HAVING is still rejected. *)

open Nra

let corpus =
  let sub select =
    Printf.sprintf
      "(select %s from supplier where s_nationkey = nation.n_nationkey and \
       s_acctbal > 100000)"
      select
  in
  [
    "select n_name from nation where exists " ^ sub "max(s_acctbal)";
    "select n_name from nation where not exists " ^ sub "max(s_acctbal)";
    "select n_name from nation where exists " ^ sub "count(*)";
    "select n_name from nation where n_regionkey = 1 and exists "
    ^ sub "sum(s_acctbal) + 1";
    "select n_name from nation where exists " ^ sub "s_acctbal";
    "select n_name from nation where exists (select max(s_acctbal) from \
     supplier where s_nationkey = nation.n_nationkey having max(s_acctbal) \
     > 100000)";
  ]

let run cat sql =
  Printf.printf "=== %s\n" sql;
  List.iter
    (fun (name, strategy) ->
      match Nra.query ~strategy cat sql with
      | Ok rel ->
          let csv = Relation.to_csv rel in
          Printf.printf "%-13s rows=%d %s\n" name (Relation.cardinality rel)
            (String.sub (Digest.to_hex (Digest.string csv)) 0 12)
      | Error m -> Printf.printf "%-13s error:%s\n" name m)
    Nra.strategies

let () =
  Nra.set_rewrite_rules [];
  Fault.disable ();
  Bufpool.set_frames None;
  let cat =
    Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.001 }
  in
  List.iter (run cat) corpus
