(* Prints the golden pins diffed by this directory's runtest rule:

   - the rendered NRA plan ([plan_description]) of the emp/dept
     subquery corpus, the Figure 4–9 queries and the four Query 1-JA
     links under each of nra-original, nra-optimized and nra-full;
   - [Nra.estimates_with_rewrites] for the same queries under rewrite
     rules {none, all}: the strategy order, and every estimate's cost,
     sequential pages, random pages and fetched rows as exact ([%h])
     floats;
   - the rewriter's trace from each NRA variant's plan under every
     rule: per proposal the rule, the site, the verdict and the
     whole-plan cost before and after, as exact ([%h]) floats.

   Catalogs are generated and ANALYZEd deterministically, so the output
   depends only on the planner, the executor's plan and the cost
   model.  The TPC-H catalog is at scale 0.01 unless the first argument
   gives another; the runtest rule diffs the 0.01 output against
   [plans.expected], and at scale 0.05 CI compares the output's MD5
   with [plans_0.05.md5]. *)

open Nra
module A = Planner.Analyze
module N = Exec.Nra_exec
module Cost = Stats.Cost
module Rw = Opt.Rewrite

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

let price_line (b : Cost.breakdown) =
  Printf.sprintf "ms=%h seq=%h rand=%h fetch=%h" (Cost.price b)
    b.Cost.seq_pages b.Cost.rand_pages b.Cost.fetched_rows

let pin_rewrite cat t (name, base) =
  Printf.printf "--- rewrite trace %s\n" name;
  match
    Rw.rewrite ~rules:Opt.Config.all
      (Rw.context (Stats.Cardinality.make_env cat t))
      (Exec.Plan.lift ~base t)
  with
  | r ->
      Printf.printf "before %s\nafter  %s\n" (price_line r.Rw.before)
        (price_line r.Rw.after);
      List.iter
        (fun (e : Rw.trace_entry) ->
          Printf.printf "%s %s: %s\n  %s\n  %s\n"
            (Opt.Config.rule_to_string e.Rw.rule)
            (match e.Rw.verdict with
            | Rw.Fired -> "fired"
            | Rw.Skipped why -> "skipped (" ^ why ^ ")")
            (Rw.site e) (price_line e.Rw.cost_before) (price_line e.Rw.cost_after))
        r.Rw.trace
  | exception e -> Printf.printf "error: %s\n" (Printexc.to_string e)

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
      Nra.set_rewrite_rules [];
      List.iter (pin_rewrite cat t) variants

let () =
  let scale =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 0.01
  in
  let emp_dept = analyzed_catalog (Test_support.emp_dept_catalog ()) in
  List.iter (pin emp_dept) Test_support.subquery_corpus;
  let tpch =
    analyzed_catalog
      (Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = scale })
  in
  List.iter (pin tpch) Test_support.tpch_plan_corpus
