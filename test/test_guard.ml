(* The query guard: budget semantics, cooperative cancellation, kill
   events, and — end to end — Auto's kill-and-fallback degradation path
   (ISSUE: skewed estimates -> Auto's pick blows its derived budget ->
   killed mid-execution -> I/O charges rolled back -> rerun under
   Nra_optimized -> same relation, fallback counted). *)

open Nra
module Iosim = Nra_storage.Iosim
module Q = Tpch.Queries

(* pinned row budgets and fallback costs assume the unrewritten plans *)
let () = Nra.set_rewrite_rules []

let kill_msg r = Printf.sprintf "query killed: budget exceeded (%s)" r

let nested_sql =
  "select ename from emp where dept_id in (select dept_id from dept \
   where budget > 40)"

(* ---------- budgets as data ---------- *)

let test_budget_algebra () =
  Alcotest.(check bool) "unlimited" true (Guard.is_unlimited Guard.unlimited);
  let a = Guard.budget ~wall_ms:100.0 ~max_rows:10 () in
  let b = Guard.budget ~wall_ms:50.0 ~sim_io_ms:2.0 () in
  Alcotest.(check bool) "limited" false (Guard.is_unlimited a);
  let m = Guard.min_budget a b in
  Alcotest.(check (option (float 0.0))) "wall min" (Some 50.0) m.Guard.wall_ms;
  Alcotest.(check (option (float 0.0))) "io kept" (Some 2.0) m.Guard.sim_io_ms;
  Alcotest.(check (option int)) "rows kept" (Some 10) m.Guard.max_rows;
  let u = Guard.min_budget Guard.unlimited Guard.unlimited in
  Alcotest.(check bool) "min of unlimited" true (Guard.is_unlimited u)

(* ---------- kills through the public API ---------- *)

let test_sim_io_kill () =
  let cat = Test_support.emp_dept_catalog () in
  Guard.reset_events ();
  let guard = Guard.budget ~sim_io_ms:1e-9 () in
  (match Nra.query ~guard cat nested_sql with
  | Error m -> Alcotest.(check string) "killed" (kill_msg "simulated-io") m
  | Ok _ -> Alcotest.fail "expected a sim-I/O kill");
  let ev = Guard.events () in
  Alcotest.(check int) "kill counted" 1 ev.Guard.budget_kills;
  (* the same query without a budget still works: no poisoned state *)
  match Nra.query cat nested_sql with
  | Ok rel -> Alcotest.(check int) "rows" 4 (Relation.cardinality rel)
  | Error m -> Alcotest.fail m

let test_max_rows_kill () =
  let cat = Test_support.emp_dept_catalog () in
  Guard.reset_events ();
  let guard = Guard.budget ~max_rows:0 () in
  (* correlated: the nested relational pipeline materializes a wide
     intermediate, which is what the row budget meters *)
  let correlated =
    "select ename from emp where exists (select * from project where \
     owner_dept = emp.dept_id)"
  in
  (match Nra.query ~guard cat correlated with
  | Error m ->
      Alcotest.(check string) "killed" (kill_msg "intermediate-rows") m
  | Ok _ -> Alcotest.fail "expected a row-budget kill");
  Alcotest.(check int) "kill counted" 1 (Guard.events ()).Guard.budget_kills

let test_cancellation () =
  let cat = Test_support.emp_dept_catalog () in
  Guard.reset_events ();
  let tok = Guard.token () in
  Alcotest.(check bool) "fresh token" false (Guard.cancelled tok);
  Guard.cancel tok;
  Alcotest.(check bool) "cancelled" true (Guard.cancelled tok);
  (match Nra.query ~guard:(Guard.budget ~cancel_on:tok ()) cat
           "select ename from emp"
   with
  | Error m -> Alcotest.(check string) "cancelled" "query killed: cancelled" m
  | Ok _ -> Alcotest.fail "expected cancellation");
  Alcotest.(check int) "counted" 1 (Guard.events ()).Guard.cancellations

let test_generous_budget_is_invisible () =
  let cat = Test_support.emp_dept_catalog () in
  Guard.reset_events ();
  let guard =
    Guard.budget ~wall_ms:1e9 ~sim_io_ms:1e9 ~max_rows:max_int ()
  in
  let expected =
    match Nra.query cat nested_sql with
    | Ok rel -> rel
    | Error m -> Alcotest.fail m
  in
  (match Nra.query ~guard cat nested_sql with
  | Ok rel ->
      Alcotest.(check bool) "same result" true (Relation.equal_bag expected rel)
  | Error m -> Alcotest.fail m);
  let ev = Guard.events () in
  Alcotest.(check int) "no kills" 0 ev.Guard.budget_kills;
  Alcotest.(check int) "no fallbacks" 0 ev.Guard.auto_fallbacks

(* ---------- library-level semantics ---------- *)

let test_wall_clock_recheck () =
  match
    Guard.with_budget
      (Guard.budget ~wall_ms:1.0 ())
      (fun () ->
        Unix.sleepf 0.01;
        Guard.recheck ();
        `No_kill)
  with
  | `No_kill -> Alcotest.fail "expected a wall-clock kill"
  | exception Guard.Killed (Guard.Budget_exceeded Guard.Wall_clock) -> ()

let test_nested_budgets () =
  Guard.with_budget
    (Guard.budget ~max_rows:10 ())
    (fun () ->
      (* an inner unlimited budget shields nothing: its rows count
         against the enclosing budget once it exits *)
      Guard.with_budget Guard.unlimited (fun () -> Guard.add_rows 8);
      match Guard.add_rows 5 with
      | () -> Alcotest.fail "inner rows must propagate to the outer budget"
      | exception Guard.Killed (Guard.Budget_exceeded Guard.Rows) -> ())

let test_remaining () =
  Guard.with_budget
    (Guard.budget ~max_rows:10 ~sim_io_ms:5.0 ())
    (fun () ->
      Guard.add_rows 4;
      let r = Guard.remaining () in
      Alcotest.(check (option int)) "rows left" (Some 6) r.Guard.max_rows;
      Alcotest.(check (option (float 1e-6)))
        "io untouched" (Some 5.0) r.Guard.sim_io_ms);
  Alcotest.(check bool) "restored" true (Guard.is_unlimited (Guard.remaining ()))

(* ---------- the degradation path, end to end ---------- *)

(* TPC-H at a small fixed scale and seed, with fresh statistics; the
   attempt budget pinned to the bare estimate (overrun 1.0, floor 0)
   turns every optimistic cost estimate into a mid-execution kill.  The
   sweep must produce at least one fallback, every Auto result must
   equal the plain Nra_optimized result, and on fallback the rolled-back
   attempt must not inflate the I/O ledger: Auto's total simulated time
   equals the fallback strategy's own. *)
let bench_queries () =
  let q1 =
    [ 500.; 1_500.; 4_000.; 8_000.; 12_000.; 16_000. ]
    |> List.map (fun n ->
           let lo, hi = Q.q1_window ~outer_fraction:(n /. 1_500_000.) in
           Q.q1 ~date_lo:lo ~date_hi:hi)
  in
  let q2 quant =
    [ 12_000.; 24_000.; 36_000.; 48_000. ]
    |> List.map (fun n ->
           let size_lo, size_hi =
             Q.size_window ~outer_fraction:(n /. 200_000.)
           in
           Q.q2 ~quant ~size_lo ~size_hi
             ~availqty_max:
               (Q.availqty_bound ~fraction:(16_000. /. 800_000.))
             ~quantity:25)
  in
  q1 @ q2 Q.Any @ q2 Q.All

let test_degradation_path () =
  let cat =
    Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.01 }
  in
  Tpch.Gen.add_benchmark_indexes cat;
  (match Nra.exec cat "analyze" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("analyze failed: " ^ m));
  let c = Nra.config () in
  Alcotest.(check (float 0.0)) "default overrun" 4.0 c.auto_overrun;
  Alcotest.(check (float 0.0)) "default floor" 1.0 c.auto_floor_ms;
  Test_support.with_config
    (fun c -> { c with auto_overrun = 1.0; auto_floor_ms = 0.0 })
  @@ fun () ->
  Fun.protect ~finally:Guard.reset_events
    (fun () ->
      let fallbacks = ref 0 in
      List.iter
        (fun sql ->
          Guard.reset_events ();
          Iosim.reset ();
          let auto_rel =
            match Nra.query ~strategy:Nra.Auto cat sql with
            | Ok rel -> rel
            | Error m -> Alcotest.fail ("auto failed: " ^ m)
          in
          let auto_sim = Iosim.simulated_seconds () in
          let fell_back = (Guard.events ()).Guard.auto_fallbacks > 0 in
          Alcotest.(check int)
            "degraded attempts are not user-facing kills" 0
            (Guard.events ()).Guard.budget_kills;
          Iosim.reset ();
          let opt_rel =
            match Nra.query ~strategy:Nra.Nra_optimized cat sql with
            | Ok rel -> rel
            | Error m -> Alcotest.fail m
          in
          let opt_sim = Iosim.simulated_seconds () in
          Alcotest.(check bool)
            "auto agrees with nra-optimized" true
            (Relation.equal_bag auto_rel opt_rel);
          if fell_back then begin
            incr fallbacks;
            Alcotest.(check (float 1e-9))
              "killed attempt's charges rolled back" opt_sim auto_sim
          end)
        (bench_queries ());
      if !fallbacks = 0 then
        Alcotest.fail
          "no query degraded: the sweep no longer exercises fallback")

let () =
  Alcotest.run "guard"
    [
      ( "budget",
        [
          Alcotest.test_case "algebra" `Quick test_budget_algebra;
          Alcotest.test_case "sim-io kill" `Quick test_sim_io_kill;
          Alcotest.test_case "row kill" `Quick test_max_rows_kill;
          Alcotest.test_case "cancellation" `Quick test_cancellation;
          Alcotest.test_case "generous budget invisible" `Quick
            test_generous_budget_is_invisible;
          Alcotest.test_case "wall-clock recheck" `Quick
            test_wall_clock_recheck;
          Alcotest.test_case "nesting" `Quick test_nested_budgets;
          Alcotest.test_case "remaining" `Quick test_remaining;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "kill-and-fallback path" `Quick
            test_degradation_path;
        ] );
    ]
