(* The lib/opt rewrite subsystem (ISSUE: algebraic rewrite pass over
   NRA plans): rule-spec parsing, per-rule
   fire / must-NOT-fire preconditions on lifted plan IR, the cost gate
   (a rewrite is applied only on strict estimated improvement),
   byte-identical CSV output rewritten-vs-unrewritten across every
   strategy × domains × frame budgets with faults on, the plan cache's
   one config, and the server's table-level locks
   (DML on disjoint tables interleaves, same-table DML serializes). *)

open Nra
open Test_support
module Cfg = Nra.Opt.Config
module Plan = Nra.Exec.Plan
module Rw = Nra.Opt.Rewrite
module Nx = Nra.Exec.Nra_exec
module An = Nra.Planner.Analyze
module Server = Nra_server.Server
module Scheduler = Nra_server.Scheduler
module Plan_cache = Nra_server.Plan_cache

let reset () = Nra.configure { (plain (Nra.config ())) with rules = [] }

let analyze cat sql =
  match An.analyze_string cat sql with
  | Ok t -> t
  | Error m -> Alcotest.fail (Printf.sprintf "analyze failed (%s): %s" sql m)

let lift ?(base = Nx.original) cat sql = Plan.lift ~base (analyze cat sql)

(* the rewriter over one statement's lifted plan, in its own context *)
let rewrite ~rules cat sql =
  let t = analyze cat sql in
  Rw.rewrite ~rules
    (Rw.context (Nra.Stats.Cardinality.make_env cat t))
    (Plan.lift ~base:Nx.original t)

(* the node for block [id], preorder *)
let node_of plan id =
  match Plan.find plan id with
  | Some n -> n
  | None -> Alcotest.fail (Printf.sprintf "no IR node for block %d" id)

let rule = Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (Cfg.rule_to_string r))
    ( = )

(* ---------- configuration ---------- *)

let test_config_parse () =
  Alcotest.(check (result (list rule) string)) "all" (Ok Cfg.all)
    (Cfg.parse "all");
  Alcotest.(check (result (list rule) string)) "none" (Ok [])
    (Cfg.parse "none");
  Alcotest.(check (result (list rule) string)) "empty" (Ok [])
    (Cfg.parse "");
  (* canonical order no matter how the set is spelled *)
  Alcotest.(check (result (list rule) string)) "subset, reordered"
    (Ok [ Cfg.Fuse_nests; Cfg.Semijoin ])
    (Cfg.parse "semijoin , FUSE");
  Alcotest.(check (result (list rule) string)) "duplicates collapse"
    (Ok [ Cfg.Pipeline ])
    (Cfg.parse "pipeline,pipelined");
  (match Cfg.parse "semijoin,bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus rule accepted")

(* ---------- per-rule preconditions on the lifted plan ----------

   [Rw.propose] is the structural gate alone (no costing): each rule
   must offer an edit exactly where [Plan.admissible] holds for it, the
   check the executor asserts. *)

let exists_equi =
  "select dname from dept where exists (select * from emp where \
   emp.dept_id = dept.dept_id)"

let not_exists_equi =
  "select dname from dept where not exists (select * from emp where \
   emp.dept_id = dept.dept_id)"

let nested_under_negative =
  "select dname from dept where not exists (select * from emp where \
   emp.dept_id = dept.dept_id and exists (select * from project where \
   project.lead_emp = emp.emp_id))"

let non_equi_corr =
  "select dname from dept where budget > all (select hours from project \
   where project.owner_dept <> dept.dept_id)"

let uncorrelated =
  "select ename from emp where salary > all (select budget from dept)"

let test_semijoin_rule () =
  let cat = emp_dept_catalog () in
  (* fires: positive leaf link, equality correlation, discard allowed *)
  (match Rw.propose Cfg.Semijoin (node_of (lift cat exists_equi) 2) with
  | Some Plan.Semijoin -> ()
  | _ -> Alcotest.fail "semijoin must fire on a positive correlated leaf");
  (* must NOT fire: negative linking operator *)
  Alcotest.(check bool) "not under NOT EXISTS" true
    (Rw.propose Cfg.Semijoin (node_of (lift cat not_exists_equi) 2) = None);
  (* must NOT fire: discarding is not allowed below a negative parent
     (the padded σ̄ tuples are still needed upstairs) *)
  Alcotest.(check bool) "not when discard_ok is false" true
    (Rw.propose Cfg.Semijoin (node_of (lift cat nested_under_negative) 3)
    = None);
  (* must NOT fire: uncorrelated blocks take the shared-set path *)
  Alcotest.(check bool) "not on a shared-set site" true
    (Rw.propose Cfg.Semijoin (node_of (lift cat uncorrelated) 2) = None)

let test_push_down_rule () =
  let cat = emp_dept_catalog () in
  (match Rw.propose Cfg.Push_down (node_of (lift cat exists_equi) 2) with
  | Some Plan.Push_down -> ()
  | _ -> Alcotest.fail "push-down must fire on equality correlation");
  (* must NOT fire: the correlation is not an equality *)
  Alcotest.(check bool) "not on non-equality correlation" true
    (Rw.propose Cfg.Push_down (node_of (lift cat non_equi_corr) 2) = None);
  Alcotest.(check bool) "not on a shared-set site" true
    (Rw.propose Cfg.Push_down (node_of (lift cat uncorrelated) 2) = None)

let test_pipeline_rule () =
  let cat = emp_dept_catalog () in
  (* fires on a materialized nest (the original variant)… *)
  (match
     Rw.propose Cfg.Pipeline (node_of (lift ~base:Nx.original cat exists_equi) 2)
   with
  | Some (Plan.Top_down { pipelined = true; _ }) -> ()
  | _ -> Alcotest.fail "pipeline must fire on a materialized nest");
  (* …and must NOT fire when the nest is already pipelined *)
  Alcotest.(check bool) "not when already pipelined" true
    (Rw.propose Cfg.Pipeline
       (node_of (lift ~base:Nx.optimized cat exists_equi) 2)
    = None)

let test_fuse_rule () =
  let cat = emp_dept_catalog () in
  (match
     Rw.propose Cfg.Fuse_nests
       (node_of (lift ~base:Nx.original cat exists_equi) 2)
   with
  | Some (Plan.Top_down { assume_sorted = true; pipelined = false }) -> ()
  | _ -> Alcotest.fail "fusion must offer assume_sorted on a sort nest");
  (* must NOT fire on a pipelined nest (fusion is subsumed there) *)
  Alcotest.(check bool) "not on a pipelined nest" true
    (Rw.propose Cfg.Fuse_nests
       (node_of (lift ~base:Nx.optimized cat exists_equi) 2)
    = None)

(* ---------- the cost gate ---------- *)

let test_gate_no_rules () =
  let cat = emp_dept_catalog () in
  let r = rewrite ~rules:[] cat exists_equi in
  Alcotest.(check bool) "no rules, no change" false r.Rw.changed;
  Alcotest.(check int) "no trace" 0 (List.length r.Rw.trace);
  (* the compiled directives of an unchanged plan just restate the
     options-driven choice (the core only installs them when [changed]) *)
  Alcotest.(check bool) "unchanged cost" true
    (r.Rw.after.Rw.ms = r.Rw.before.Rw.ms)

let test_gate_monotone () =
  let cat = emp_dept_catalog () in
  List.iter
    (fun sql ->
      let r = rewrite ~rules:Cfg.all cat sql in
      Alcotest.(check bool)
        (Printf.sprintf "estimate never worsens (%s)" sql)
        true
        (r.Rw.after.Rw.ms <= r.Rw.before.Rw.ms +. 1e-9);
      List.iter
        (fun (e : Rw.trace_entry) ->
          match e.Rw.verdict with
          | Rw.Fired ->
              Alcotest.(check bool) "every fired edit strictly improved" true
                (e.Rw.cost_after.Rw.ms < e.Rw.cost_before.Rw.ms)
          | Rw.Skipped _ -> ())
        r.Rw.trace;
      let impls p = List.map (fun n -> n.Plan.impl) (Plan.nodes p) in
      if r.Rw.changed then
        Alcotest.(check bool) "the rewritten plan differs from the lifted one"
          true
          (impls r.Rw.dirs
          <> impls (Plan.lift ~base:Nx.original (analyze cat sql))))
    [ exists_equi; not_exists_equi; nested_under_negative; uncorrelated ]

(* every proposal on every corpus site, under every base, is admissible
   where it is proposed *)
let test_proposals_admissible () =
  let cat = emp_dept_catalog () in
  List.iter
    (fun sql ->
      List.iter
        (fun base ->
          List.iter
            (fun (n : Plan.node) ->
              List.iter
                (fun rule ->
                  match Rw.propose rule n with
                  | None -> ()
                  | Some impl ->
                      if not (Plan.admissible { n with Plan.impl }) then
                        Alcotest.fail
                          (Printf.sprintf "%s proposed %s at block %d: %s"
                             (Cfg.rule_to_string rule)
                             (Plan.impl_to_string impl)
                             n.Plan.child.An.block.An.id sql))
                Cfg.all)
            (Plan.nodes (Plan.lift ~base (analyze cat sql))))
        [ Nx.original; Nx.optimized; Nx.full ])
    subquery_corpus

(* ---------- the plan Auto priced is the plan it runs ----------

   Over the plan goldens' corpus (emp/dept and TPC-H at scale 0.01,
   both ANALYZEd) under rules {none, all}: a statement prepared once
   and run twice returns the rows and charges the simulated I/O of
   [Nra.run ~strategy:Auto], which prices and runs in one call. *)

let io_after f =
  let c0 = Nra.Iosim.counters () in
  let r = f () in
  let c1 = Nra.Iosim.counters () in
  ( r,
    ( c1.Nra.Iosim.seq_pages - c0.Nra.Iosim.seq_pages,
      c1.Nra.Iosim.rand_pages - c0.Nra.Iosim.rand_pages,
      c1.Nra.Iosim.fetched_rows - c0.Nra.Iosim.fetched_rows ) )

(* the two corpora's catalogs, ANALYZEd *)
let analyzed cat =
  ignore (Nra.exec cat "analyze");
  cat

let tpch_analyzed () =
  analyzed
    (Nra.Tpch.Gen.generate
       { Nra.Tpch.Gen.default with Nra.Tpch.Gen.scale = 0.01 })

let test_prepared_runs_priced () =
  reset ();
  let rows = function
    | Ok (Nra.Rows rel) -> Relation.rows rel
    | Ok _ -> Alcotest.fail "expected rows"
    | Error e -> Alcotest.fail (Nra.Exec_error.to_string e)
  in
  let check cat sql =
    let direct, io = io_after (fun () -> rows (Nra.run ~strategy:Nra.Auto cat sql)) in
    match Nra.prepare ~strategy:Nra.Auto cat sql with
    | Error e -> Alcotest.fail (Nra.Exec_error.to_string e)
    | Ok p ->
        for run = 1 to 2 do
          let prepared, io' = io_after (fun () -> rows (Nra.run_prepared cat p)) in
          let what =
            Printf.sprintf "%s (run %d, rules %s)" sql run
              (Cfg.mask (Nra.config ()).rules)
          in
          Alcotest.(check bool) ("rows: " ^ what) true (prepared = direct);
          Alcotest.(check (triple int int int)) ("seq/rand/fetched: " ^ what) io io'
        done
  in
  let emp_dept = analyzed (emp_dept_catalog ()) in
  let tpch = tpch_analyzed () in
  List.iter
    (fun rules ->
      Nra.set_rewrite_rules rules;
      List.iter (check emp_dept) subquery_corpus;
      List.iter (check tpch) tpch_plan_corpus)
    [ []; Cfg.all ];
  reset ()

(* ---------- the plan priced is the plan run ----------

   Over the same corpora, both ANALYZEd, under every rule: each NRA
   estimate Auto ranks is the walk of the plan that strategy runs (its
   fired rewrite, else its lift); every estimate pays at least one
   sequential page; EXPLAIN COSTS names the strategy Auto runs; and
   Auto, running on what it priced, never needs its fallback. *)

let avg_q1_ja =
  "select o_orderkey from orders where o_totalprice > (select \
   avg(l_extendedprice) from lineitem where l_orderkey = o_orderkey)"

let test_priced_is_run () =
  reset ();
  Nra.set_rewrite_rules Cfg.all;
  let module Cost = Nra.Stats.Cost in
  let selects =
    List.filter (fun sql ->
        match Nra.Sql.Parser.parse_command sql with
        | Nra.Sql.Ast.Cmd_query (Nra.Sql.Ast.Select _) -> true
        | _ -> false)
  in
  let check cat sql =
    let t = analyze cat sql in
    let es = Nra.estimates_with_rewrites cat t in
    Alcotest.(check int) (sql ^ ": every strategy priced") 6 (List.length es);
    List.iter
      (fun (e : Cost.estimate) ->
        let what =
          Printf.sprintf "%s (%s)" sql (Cost.to_string e.Cost.strategy)
        in
        Alcotest.(check bool) ("scans a page: " ^ what) true
          (e.Cost.breakdown.Cost.seq_pages >= 1.0);
        match Cost.nra_base e.Cost.strategy with
        | None -> ()
        | Some base ->
            let runs =
              match Nra.rewrite_for cat t base with
              | Some r -> r.Rw.dirs
              | None -> Plan.lift ~base t
            in
            let env = Nra.Stats.Cardinality.make_env cat t in
            let walk = Rw.walk (Rw.context env) runs in
            Alcotest.(check bool) ("priced by its run's walk: " ^ what) true
              (Cost.estimate_in env ~walk e.Cost.strategy = e))
      es;
    let choice =
      match Nra.auto_choice cat sql with
      | Ok s -> Nra.strategy_to_string s
      | Error m -> Alcotest.fail m
    in
    (match Nra.explain_costs cat sql with
    | Error m -> Alcotest.fail m
    | Ok report ->
        Alcotest.(check (list string)) (sql ^ ": explain names the pick")
          [ "auto picks: " ^ choice ]
          (List.filter
             (fun l -> String.starts_with ~prefix:"auto picks:" l)
             (String.split_on_char '\n' report)));
    let before = (Guard.events ()).Guard.auto_fallbacks in
    (match Nra.run ~strategy:Nra.Auto cat sql with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Nra.Exec_error.to_string e));
    Alcotest.(check int) (sql ^ ": no auto fallback") before
      (Guard.events ()).Guard.auto_fallbacks
  in
  List.iter (check (analyzed (emp_dept_catalog ()))) (selects subquery_corpus);
  List.iter (check (tpch_analyzed ())) (avg_q1_ja :: tpch_plan_corpus);
  reset ()

(* ---------- the executor runs the plan as given ----------

   A hand-edited plan that puts an implementation where its structural
   preconditions fail is rejected with [Invalid_argument] before any
   row is produced — it never degrades to another implementation. *)

let test_inadmissible_plan_raises () =
  let cat = emp_dept_catalog () in
  let check name sql ~id ~impl =
    let t = analyze cat sql in
    let plan = Plan.replace (Plan.lift ~base:Nx.original t) ~id ~impl in
    Alcotest.(check bool) (name ^ ": not admissible") false
      (Plan.admissible (node_of plan id));
    match Nx.run_where ~directives:plan cat t with
    | _ -> Alcotest.fail (name ^ ": an inadmissible plan returned rows")
    | exception Invalid_argument _ -> ()
  in
  check "semijoin on NOT EXISTS" not_exists_equi ~id:2 ~impl:Plan.Semijoin;
  check "push-down on a non-equi site" non_equi_corr ~id:2
    ~impl:Plan.Push_down;
  (* a discard context the node's position contradicts is rejected too *)
  let t = analyze cat nested_under_negative in
  let plan = Plan.lift ~base:Nx.original t in
  let lie =
    {
      plan with
      Plan.roots =
        List.map
          (fun (n : Plan.node) ->
            {
              n with
              Plan.sub =
                List.map
                  (fun (m : Plan.node) -> { m with Plan.discard_ok = true })
                  n.Plan.sub;
            })
          plan.Plan.roots;
    }
  in
  match Nx.run_where ~directives:lie cat t with
  | _ -> Alcotest.fail "a contradicted discard context returned rows"
  | exception Invalid_argument _ -> ()

(* ---------- rewritten vs unrewritten: byte-identical CSV ----------

   The ISSUE's identity matrix: the whole subquery corpus, every
   strategy, domains {0,2,4} × frame budgets {8 pages, unbounded},
   faults on — the CSV under --rewrite all must equal the CSV under
   --rewrite none byte for byte (same rows, same order), or both runs
   must fail identically. *)

let run_csv cat strategy sql spec =
  Nra.set_rewrite_rules spec;
  (* reseed per run so both sides of the comparison see the very same
     fault sequence *)
  Nra.Fault.configure ~seed:11 0.02;
  match Nra.query ~strategy cat sql with
  | Ok rel -> Ok (Relation.to_csv rel)
  | Error m -> Error m

let test_identity_matrix () =
  let cat = emp_dept_catalog () in
  List.iter
    (fun domains ->
      List.iter
        (fun frames ->
          Nra.configure
            {
              (Nra.config ()) with
              domains;
              frames =
                (match frames with
                | Some n -> Engine_config.Pages n
                | None -> Off);
            };
          List.iter
            (fun sql ->
              List.iter
                (fun strategy ->
                  let plain = run_csv cat strategy sql [] in
                  let rewritten = run_csv cat strategy sql Cfg.all in
                  let label =
                    Printf.sprintf "%s / %d domains / %s frames: %s"
                      (Nra.strategy_to_string strategy)
                      domains
                      (match frames with
                      | Some n -> string_of_int n
                      | None -> "inf")
                      sql
                  in
                  match (plain, rewritten) with
                  | Ok a, Ok b ->
                      if a <> b then
                        Alcotest.fail
                          (Printf.sprintf "CSV diverged under rewrite: %s"
                             label)
                  | Error _, Error _ -> ()
                  | _ ->
                      Alcotest.fail
                        (Printf.sprintf "one side failed: %s" label))
                all_strategies)
            subquery_corpus)
        [ Some 8; None ])
    [ 0; 2; 4 ];
  reset ()

(* ---------- a plan cache prepares under one config ---------- *)

let test_plan_cache_config () =
  reset ();
  let cat = emp_dept_catalog () in
  let pc = Plan_cache.create ~config:(Nra.config ()) cat in
  let look () =
    match Plan_cache.find_or_prepare pc ~strategy:Nra.Nra_optimized exists_equi
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Nra.Exec_error.to_string e)
  in
  look ();
  look ();
  let s = Plan_cache.stats pc in
  Alcotest.(check int) "second lookup hits" 1 s.Plan_cache.hits;
  Alcotest.(check int) "one miss" 1 s.Plan_cache.misses;
  (* the cache keeps the config it was created with: a rule toggle
     afterwards neither misses nor re-prepares *)
  Nra.set_rewrite_rules Cfg.all;
  look ();
  let s = Plan_cache.stats pc in
  Alcotest.(check int) "a rule toggle still hits" 2 s.Plan_cache.hits;
  Alcotest.(check int) "and prepares nothing" 1 s.Plan_cache.misses;
  reset ()

(* ---------- table-level locks in the server ----------

   PR 6 wrapped every non-query in [Guard.with_no_yield], so two DML
   statements could never interleave.  The footprint locks relax that:
   DML on disjoint tables yields back and forth like queries do, while
   same-table writers still serialize (and a catalog-wide ANALYZE keeps
   the old critical section). *)

let tpch_server () =
  let cat =
    Nra.Tpch.Gen.generate
      { Nra.Tpch.Gen.scale = 0.002; seed = 7L; null_rate = 0.0;
        declare_not_null = false }
  in
  Server.create
    ~config:{ Server.default_config with Server.quantum_ms = 0.2 }
    cat

let submit_now srv session sql =
  match Server.submit srv ~at:0.0 session sql with
  | `Running _ | `Queued -> ()
  | `Done o -> (
      match o.Server.result with
      | Ok _ -> ()
      | Error e ->
          Alcotest.fail
            (Printf.sprintf "submit failed (%s): %s" sql
               (Nra.Exec_error.to_string e)))

let all_ok outcomes =
  List.iter
    (fun (o : Server.outcome) ->
      match o.Server.result with
      | Ok _ -> ()
      | Error e ->
          Alcotest.fail
            (Printf.sprintf "%s: %s" o.Server.sql
               (Nra.Exec_error.to_string e)))
    outcomes

let test_disjoint_dml_interleaves () =
  reset ();
  let srv = tpch_server () in
  let s1 = Server.session srv () and s2 = Server.session srv () in
  submit_now srv s1 "update orders set o_shippriority = o_shippriority + 1";
  submit_now srv s2 "update lineitem set l_linenumber = l_linenumber + 0";
  let outs = Server.finish srv in
  all_ok outs;
  Alcotest.(check int) "both statements completed" 2 (List.length outs);
  let st = Scheduler.stats (Server.scheduler srv) in
  (* under with_no_yield this was structurally impossible: a DML ran
     its whole body inside one no-yield slice *)
  Alcotest.(check bool) "disjoint-table DML actually yielded" true
    (st.Scheduler.yields > 0)

let test_same_table_dml_serializes () =
  reset ();
  let srv = tpch_server () in
  let s1 = Server.session srv () and s2 = Server.session srv () in
  submit_now srv s1 "update orders set o_shippriority = o_shippriority + 1";
  submit_now srv s2 "update orders set o_shippriority = o_shippriority + 1";
  let outs = Server.finish srv in
  all_ok outs;
  (* the blocked writer waited on the lock by virtual-sleeping *)
  let st = Scheduler.stats (Server.scheduler srv) in
  Alcotest.(check bool) "second writer slept on the table lock" true
    (st.Scheduler.sleeps > 0);
  (* and both full-table updates report the same row count: neither saw
     a half-applied table *)
  (match
     List.filter_map
       (fun (o : Server.outcome) ->
         match o.Server.result with Ok (Nra.Count n) -> Some n | _ -> None)
       outs
   with
  | [ a; b ] -> Alcotest.(check int) "same rows touched" a b
  | _ -> Alcotest.fail "expected two update counts")

let test_analyze_keeps_critical_section () =
  reset ();
  let srv = tpch_server () in
  let s1 = Server.session srv () and s2 = Server.session srv () in
  submit_now srv s1 "analyze";
  submit_now srv s2 "select count(*) from region";
  all_ok (Server.finish srv)

(* ---------- what a plan-cache miss allocates ----------

   [Nra.prepare ~strategy:Auto] is what a plan-cache miss runs: parse,
   analysis, six estimates, three lifted plans and three rewrite
   searches.  At scale 0.01 with the benchmark indexes, ANALYZE, every
   rule on and [paper_mix_rw]'s parameters, Query 1-JA, Query 2 ALL,
   Query 3a, Query 3b NOT EXISTS and the lookup measured 2,125, 2,815,
   2,741, 2,626 and 1,164 words once the searches priced proposals by
   signature and built no plan, and the estimates and cardinalities
   stopped boxing floats and building options: the caps leave about
   10 % above that.  Before, they measured 3,284, 5,178, 4,985, 4,544
   and 1,772; while binding a table under its own name still copied its
   schema, Query 1-JA, Query 3a and the lookup measured 3,480, 5,264
   and 1,868 words, and before each fact was recorded once per block
   and each plan priced once per context, 6,271, 10,879 and 3,204. *)
let test_prepare_floors () =
  reset ();
  Fun.protect ~finally:reset @@ fun () ->
  let module Q = Nra.Tpch.Queries in
  let cat =
    Nra.Tpch.Gen.generate
      { Nra.Tpch.Gen.default with Nra.Tpch.Gen.scale = 0.01 }
  in
  Nra.Tpch.Gen.add_benchmark_indexes cat;
  ignore (Nra.run cat "analyze");
  Nra.set_rewrite_rules Cfg.all;
  let lo, hi = Q.q1_window ~outer_fraction:0.005 in
  let availqty_max = Q.availqty_bound ~fraction:0.02 in
  let q3 variant ~exists =
    Q.q3 ~quant:Q.Any ~exists ~variant ~size_lo:1 ~size_hi:6 ~availqty_max
      ~quantity:25
  in
  List.iter
    (fun (name, cap, sql) ->
      let words =
        words_per 5 (fun _ ->
            match Nra.prepare ~strategy:Nra.Auto cat sql with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Exec_error.to_string e))
      in
      if words > cap then
        Alcotest.failf "preparing %s allocated %.0f words (cap %.0f)" name
          words cap)
    [
      ( "Query 1-JA (in)",
        2_350.0,
        Q.q1_ja ~link:Q.Ja_in ~date_lo:lo ~date_hi:hi );
      ( "Query 2 (all)",
        3_100.0,
        Q.q2 ~quant:Q.All ~size_lo:1 ~size_hi:6 ~availqty_max ~quantity:25 );
      ("Query 3a (exists)", 3_000.0, q3 Q.A ~exists:true);
      ("Query 3b (not exists)", 2_900.0, q3 Q.B ~exists:false);
      ( "the lookup",
        1_280.0,
        "select s_name from supplier where s_nationkey in (select \
         n_nationkey from nation where n_regionkey = 2)" );
    ]

let () =
  Alcotest.run "opt"
    [
      ( "config",
        [
          Alcotest.test_case "parse" `Quick test_config_parse;
        ] );
      ( "rules",
        [
          Alcotest.test_case "semijoin" `Quick test_semijoin_rule;
          Alcotest.test_case "push-down" `Quick test_push_down_rule;
          Alcotest.test_case "pipeline" `Quick test_pipeline_rule;
          Alcotest.test_case "fuse" `Quick test_fuse_rule;
        ] );
      ( "gate",
        [
          Alcotest.test_case "no rules, no change" `Quick test_gate_no_rules;
          Alcotest.test_case "monotone estimates" `Quick test_gate_monotone;
        ] );
      ( "plan",
        [
          Alcotest.test_case "proposals are admissible" `Quick
            test_proposals_admissible;
          Alcotest.test_case "inadmissible plan raises" `Quick
            test_inadmissible_plan_raises;
          Alcotest.test_case "prepared runs what Auto priced" `Quick
            test_prepared_runs_priced;
          Alcotest.test_case "prepare stays under its floor"
            `Quick test_prepare_floors;
          Alcotest.test_case "the plan priced is the plan run" `Quick
            test_priced_is_run;
        ] );
      ( "identity",
        [ Alcotest.test_case "rewritten = unrewritten" `Slow
            test_identity_matrix ] );
      ( "plan-cache",
        [ Alcotest.test_case "one config per cache" `Quick
            test_plan_cache_config ] );
      ( "locks",
        [
          Alcotest.test_case "disjoint DML interleaves" `Quick
            test_disjoint_dml_interleaves;
          Alcotest.test_case "same-table DML serializes" `Quick
            test_same_table_dml_serializes;
          Alcotest.test_case "analyze stays exclusive" `Quick
            test_analyze_keeps_critical_section;
        ] );
    ]
