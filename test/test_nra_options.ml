(* The nested relational executor under every §4.2 option combination:
   all must compute identical results; the stats must reflect what each
   variant is supposed to avoid. *)

open Nra
open Test_support
module N = Exec.Nra_exec
module A = Planner.Analyze

let option_space =
  let bools = [ false; true ] in
  List.concat_map
    (fun pipelined ->
      List.concat_map
        (fun bottom_up ->
          List.concat_map
            (fun push_down ->
              List.map
                (fun positive ->
                  {
                    N.pipelined;
                    bottom_up_linear = bottom_up;
                    push_down_nest = push_down;
                    positive_simplify = positive;
                  })
                bools)
            bools)
        bools)
    bools

let analyze cat sql =
  match A.analyze_string cat sql with
  | Ok t -> t
  | Error m -> Alcotest.fail m

let run_opts cat t options = N.run ~options cat t

let check_all_options cat sql =
  let t = analyze cat sql in
  let reference = Exec.Naive.run cat t in
  List.iteri
    (fun i options ->
      let rel = run_opts cat t options in
      if not (Relation.equal_bag reference rel) then
        Alcotest.fail
          (Printf.sprintf "option combination %d disagrees on %s" i sql))
    option_space

let corpus =
  [
    "select dname from dept where budget < all (select salary from emp \
     where emp.dept_id = dept.dept_id)";
    "select dname from dept where not exists (select * from emp where \
     emp.dept_id = dept.dept_id) and budget > any (select hours from \
     project where project.owner_dept = dept.dept_id)";
    "select dname from dept where budget <= all (select salary from emp \
     where emp.dept_id = dept.dept_id and not exists (select * from \
     project where project.lead_emp = emp.emp_id))";
    "select dname from dept where budget < any (select salary from emp \
     where emp.dept_id = dept.dept_id and exists (select * from project \
     where project.owner_dept = dept.dept_id and project.lead_emp = \
     emp.emp_id))";
    "select ename from emp where salary > all (select budget from dept)";
    "select ename from emp where dept_id in (select dept_id from dept \
     where budget > 20)";
    "select dname from dept where budget > all (select hours from project \
     where project.owner_dept <> dept.dept_id)";
  ]

let test_option_space () =
  let cat = emp_dept_catalog () in
  List.iter (check_all_options cat) corpus

let test_variants_have_names () =
  Alcotest.(check bool) "original is two-pass" false N.original.N.pipelined;
  Alcotest.(check bool) "optimized is pipelined" true N.optimized.N.pipelined;
  Alcotest.(check bool) "full enables everything" true
    (N.full.N.pipelined && N.full.N.bottom_up_linear
    && N.full.N.push_down_nest && N.full.N.positive_simplify)

let test_stats_intermediate () =
  let cat = emp_dept_catalog () in
  let t =
    analyze cat
      "select dname from dept where budget < all (select salary from emp \
       where emp.dept_id = dept.dept_id)"
  in
  let _, st = N.run_where ~options:N.original cat t in
  Alcotest.(check bool) "outer join materialized" true
    (st.N.peak_intermediate_rows > 0);
  (* push-down avoids the wide intermediate entirely *)
  let _, st = N.run_where ~options:N.full cat t in
  Alcotest.(check int) "push-down avoids it" 0 st.N.peak_intermediate_rows

let test_positive_simplification_used () =
  let cat = emp_dept_catalog () in
  let t =
    analyze cat
      "select dname from dept where exists (select * from emp where \
       emp.dept_id = dept.dept_id)"
  in
  let options = { N.original with N.positive_simplify = true } in
  let _, st = N.run_where ~options cat t in
  Alcotest.(check int) "semijoin instead of outer join + nest" 0
    st.N.peak_intermediate_rows;
  Alcotest.(check bool) "no nest time" true (st.N.nest_select_seconds >= 0.0)

let test_nest_cost_recorded () =
  let cfg = { Tpch.Gen.default with scale = 0.002 } in
  let cat = Tpch.Gen.generate cfg in
  let lo, hi = Tpch.Queries.q1_window ~outer_fraction:0.5 in
  let t = analyze cat (Tpch.Queries.q1 ~date_lo:lo ~date_hi:hi) in
  let _, st_orig = N.run_where ~options:N.original cat t in
  let _, st_opt = N.run_where ~options:N.optimized cat t in
  Alcotest.(check bool) "original records nest time" true
    (st_orig.N.nest_select_seconds > 0.0);
  Alcotest.(check bool) "same intermediate size" true
    (st_orig.N.total_intermediate_rows = st_opt.N.total_intermediate_rows)

let test_deep_linear_bottom_up () =
  (* 3-level strictly linear chain: bottom-up must agree *)
  let cat = emp_dept_catalog () in
  let sql =
    "select dname from dept where budget < any (select salary from emp \
     where emp.dept_id = dept.dept_id and salary > all (select hours from \
     project where project.lead_emp = emp.emp_id))"
  in
  let t = analyze cat sql in
  Alcotest.(check bool) "is linear" true t.A.linear;
  check_all_options cat sql

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_fused_sites () =
  let cat = Tpch.Gen.generate { Tpch.Gen.default with scale = 0.002 } in
  let lo, hi = Tpch.Queries.q1_window ~outer_fraction:0.5 in
  let q1 = Tpch.Queries.q1 ~date_lo:lo ~date_hi:hi in
  let q1_ja link = Tpch.Queries.q1_ja ~link ~date_lo:lo ~date_hi:hi in
  let q2 =
    Tpch.Queries.q2 ~quant:Tpch.Queries.All ~size_lo:1 ~size_hi:12
      ~availqty_max:2000 ~quantity:25
  in
  let run options sql =
    let t = analyze cat sql in
    let _, st = N.run_where ~options cat t in
    (st, N.plan_description (Exec.Plan.lift ~base:options t))
  in
  let expect name sql ~fused =
    let st_opt, plan_opt = run N.optimized sql in
    let st_orig, plan_orig = run N.original sql in
    Alcotest.(check int) (name ^ ": fused under nra-optimized") fused
      st_opt.N.fused_sites;
    Alcotest.(check int) (name ^ ": none under nra-original") 0
      st_orig.N.fused_sites;
    Alcotest.(check bool) (name ^ ": optimized plan marks it") true
      (contains plan_opt "fused with the probe");
    Alcotest.(check bool) (name ^ ": original plan does not") false
      (contains plan_orig "fused");
    (* the logical wide cardinality is counted either way *)
    Alcotest.(check int)
      (name ^ ": same peak intermediate")
      st_orig.N.peak_intermediate_rows st_opt.N.peak_intermediate_rows;
    Alcotest.(check int)
      (name ^ ": same total intermediate")
      st_orig.N.total_intermediate_rows st_opt.N.total_intermediate_rows
  in
  expect "Q1" q1 ~fused:1;
  List.iter
    (fun link ->
      expect ("Q1-JA " ^ Tpch.Queries.ja_link_str link) (q1_ja link) ~fused:1)
    Tpch.Queries.[ Ja_in; Ja_not_in; Ja_gt_all; Ja_scalar_eq ];
  (* Q2's upper site feeds its NOT EXISTS grandchild: its wide frame is
     kept as position pairs, so it builds no wide row either *)
  expect "Q2" q2 ~fused:2

let test_plan_description () =
  let cat = emp_dept_catalog () in
  let t =
    analyze cat
      "select dname from dept where budget <= all (select salary from emp \
       where emp.dept_id = dept.dept_id and not exists (select * from \
       project where project.lead_emp = emp.emp_id))"
  in
  let plan = N.plan_description (Exec.Plan.lift ~base:N.optimized t) in
  Alcotest.(check bool) "starts from T1" true (contains plan "T1 :=");
  Alcotest.(check bool) "outer join shown" true (contains plan "⟕");
  Alcotest.(check bool) "nest shown" true (contains plan "ν by");
  Alcotest.(check bool) "pseudo-selection for negative enclosing" true
    (contains plan "σ̄[NOT EXISTS");
  Alcotest.(check bool) "discard at the top" true
    (contains plan "σ[dept.budget <= ALL");
  (* the full options report the shortcut they take *)
  let plan_full = N.plan_description (Exec.Plan.lift ~base:N.full t) in
  Alcotest.(check bool) "bottom-up reported" true
    (contains plan_full "§4.2.3" || contains plan_full "§4.2.4");
  (* explain exposes the pipeline *)
  match Nra.explain cat "select dname from dept where exists (select * from \
                         emp where emp.dept_id = dept.dept_id)" with
  | Ok text ->
      Alcotest.(check bool) "explain includes the pipeline" true
        (contains text "nested relational pipeline")
  | Error m -> Alcotest.fail m

let test_ja_plan_description () =
  let ja_sql =
    "select ename from emp where salary in (select max(budget) from dept \
     where dept.dept_id = emp.dept_id)"
  in
  let cat = emp_dept_catalog () in
  let t = analyze cat ja_sql in
  let plan = N.plan_description (Exec.Plan.lift ~base:N.optimized t) in
  Alcotest.(check bool) "aggregate value set rendered" true
    (contains plan "{max(…)}");
  (* a JA site is never positive: the §4.2.5 semijoin shortcut must not
     be reported even under the full options *)
  let plan_full = N.plan_description (Exec.Plan.lift ~base:N.full t) in
  Alcotest.(check bool) "no semijoin shortcut on a JA link" false
    (contains plan_full "§4.2.5");
  match Nra.explain cat ja_sql with
  | Ok text ->
      Alcotest.(check bool) "explain shows the aggregate" true
        (contains text "agg: max")
  | Error m -> Alcotest.fail m

let () =
  Alcotest.run "nra_options"
    [
      ( "equivalence",
        [
          Alcotest.test_case "all 16 option combinations" `Quick
            test_option_space;
          Alcotest.test_case "deep linear chain" `Quick
            test_deep_linear_bottom_up;
        ] );
      ( "variants",
        [
          Alcotest.test_case "presets" `Quick test_variants_have_names;
          Alcotest.test_case "intermediate stats" `Quick
            test_stats_intermediate;
          Alcotest.test_case "positive simplification" `Quick
            test_positive_simplification_used;
          Alcotest.test_case "nest cost recorded" `Quick
            test_nest_cost_recorded;
          Alcotest.test_case "fused sites" `Quick test_fused_sites;
          Alcotest.test_case "plan description" `Quick test_plan_description;
          Alcotest.test_case "JA plan description" `Quick
            test_ja_plan_description;
        ] );
    ]
