(* Prints the golden pins diffed by this directory's runtest rule:

   - the rendered NRA plan ([plan_description]) of the emp/dept
     subquery corpus, the Figure 4–9 queries and the four Query 1-JA
     links under each of nra-original, nra-optimized and nra-full;
   - [Nra.estimates_with_rewrites] for the same queries under rewrite
     rules {none, all}: the strategy order, and every estimate's cost,
     sequential pages, random pages and fetched rows as exact ([%h])
     floats.

   Catalogs are generated and ANALYZEd deterministically, so the output
   depends only on the planner, the executor's plan and the cost
   model. *)

open Nra
module A = Planner.Analyze
module N = Exec.Nra_exec
module Q = Tpch.Queries
module Cost = Stats.Cost

let variants =
  [ ("original", N.original); ("optimized", N.optimized); ("full", N.full) ]

let one_line sql =
  String.split_on_char '\n' sql
  |> List.map String.trim
  |> List.filter (( <> ) "")
  |> String.concat " "

let analyzed_catalog cat =
  (match Nra.exec cat "analyze" with
  | Ok _ -> ()
  | Error m -> failwith ("analyze: " ^ m));
  cat

let tpch_corpus =
  let lo, hi = Q.q1_window ~outer_fraction:0.2 in
  let q2 quant =
    Q.q2 ~quant ~size_lo:1 ~size_hi:12 ~availqty_max:2000 ~quantity:25
  in
  let q3 quant exists variant =
    Q.q3 ~quant ~exists ~variant ~size_lo:1 ~size_hi:12 ~availqty_max:2000
      ~quantity:25
  in
  [ Q.q1 ~date_lo:lo ~date_hi:hi; q2 Q.Any; q2 Q.All ]
  @ List.concat_map
      (fun variant ->
        List.concat_map
          (fun quant -> [ q3 quant true variant; q3 quant false variant ])
          [ Q.Any; Q.All ])
      [ Q.A; Q.B; Q.C ]
  @ List.map
      (fun link -> Q.q1_ja ~link ~date_lo:lo ~date_hi:hi)
      [ Q.Ja_in; Q.Ja_not_in; Q.Ja_gt_all; Q.Ja_scalar_eq ]

let pin cat sql =
  Printf.printf "=== %s\n" (one_line sql);
  match A.analyze_string cat sql with
  | Error m -> Printf.printf "analyze error: %s\n" m
  | Ok t ->
      List.iter
        (fun (name, options) ->
          Printf.printf "--- plan %s\n%s" name
            (N.plan_description (Exec.Plan.lift ~base:options t)))
        variants;
      List.iter
        (fun (name, rules) ->
          Nra.set_rewrite_rules rules;
          Printf.printf "--- estimates, rewrite %s\n" name;
          match Nra.estimates_with_rewrites cat t with
          | es ->
              List.iter
                (fun (e : Cost.estimate) ->
                  let b = e.Cost.breakdown in
                  Printf.printf "%-13s ms=%h seq=%h rand=%h fetch=%h\n"
                    (Cost.to_string e.Cost.strategy)
                    e.Cost.cost_ms b.Cost.seq_pages b.Cost.rand_pages
                    b.Cost.fetched_rows)
                es
          | exception e -> Printf.printf "error: %s\n" (Printexc.to_string e))
        [ ("none", []); ("all", Opt.Config.all) ];
      Nra.set_rewrite_rules []

let () =
  let emp_dept = analyzed_catalog (Test_support.emp_dept_catalog ()) in
  List.iter (pin emp_dept) Test_support.subquery_corpus;
  let tpch =
    analyzed_catalog
      (Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.01 })
  in
  List.iter (pin tpch) tpch_corpus
