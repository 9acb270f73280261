(* Deterministic fault injection: seeded reproducibility, transparent
   absorption of transient faults by the executors' retry loops (with no
   double-charged I/O), permanent faults surfacing as structured errors
   with engine state intact, and allocation-pressure faults. *)

open Nra
module Iosim = Nra_storage.Iosim

(* these tests assume every scan touches storage (a permanent fault
   must escape, retries must draw); a CI-wide NRA_BUFFER_PAGES run
   would keep hot pages resident and free, so pin the pool off; and
   the pinned intermediate-row counts assume the unrewritten plans *)
let () = Nra.configure { (Nra.config ()) with frames = Off; rules = [] }

let with_faults ?seed ?max_retries ?backoff_ms p f =
  Fault.configure ?seed ?max_retries ?backoff_ms p;
  Fun.protect ~finally:Fault.disable f

let nested_sql =
  "select ename from emp where dept_id in (select dept_id from dept \
   where budget > 40)"

let test_configure_clamps () =
  with_faults 1.5 (fun () ->
      Alcotest.(check (float 0.0)) "clamped high" 1.0
        (Fault.config ()).Fault.probability);
  with_faults (-0.5) (fun () ->
      Alcotest.(check (float 0.0)) "clamped low" 0.0
        (Fault.config ()).Fault.probability;
      Alcotest.(check bool) "p=0 is disabled" false (Fault.enabled ()));
  Alcotest.(check bool) "disabled after" false (Fault.enabled ())

let test_determinism () =
  let draw () =
    with_faults ~seed:11 0.5 (fun () ->
        List.init 200 (fun _ ->
            match Fault.inject "t" with
            | () -> false
            | exception Fault.Io_fault _ -> true))
  in
  let a = draw () in
  Alcotest.(check (list bool)) "same seed, same faults" a (draw ());
  Alcotest.(check bool) "some faults" true (List.mem true a);
  Alcotest.(check bool) "some passes" true (List.mem false a);
  let other =
    with_faults ~seed:12 0.5 (fun () ->
        List.init 200 (fun _ ->
            match Fault.inject "t" with
            | () -> false
            | exception Fault.Io_fault _ -> true))
  in
  Alcotest.(check bool) "different seed differs" false (a = other)

let test_transient_absorbed () =
  let cat = Test_support.emp_dept_catalog () in
  Iosim.reset ();
  let expected =
    match Nra.query cat nested_sql with
    | Ok rel -> rel
    | Error m -> Alcotest.fail m
  in
  let clean_sim = Iosim.simulated_seconds () in
  with_faults ~seed:5 ~max_retries:8 ~backoff_ms:0.01 0.3 (fun () ->
      (* many runs so the seeded draw certainly injects; every one must
         come back Ok with the same rows and the same simulated charges
         as a fault-free run — injection fires BEFORE any counter or
         cache mutation, so retries never double-charge *)
      for _ = 1 to 20 do
        Iosim.reset ();
        (match Nra.query cat nested_sql with
        | Ok rel ->
            Alcotest.(check bool)
              "same rows under faults" true
              (Relation.equal_bag expected rel)
        | Error m -> Alcotest.fail ("transient fault escaped: " ^ m));
        Alcotest.(check (float 1e-12))
          "no double-charged I/O" clean_sim
          (Iosim.simulated_seconds ())
      done;
      let s = Fault.stats () in
      Alcotest.(check bool) "faults were injected" true (s.Fault.injected > 0);
      Alcotest.(check bool) "retries happened" true (s.Fault.retried > 0);
      Alcotest.(check int) "none escaped" 0 s.Fault.escaped;
      Alcotest.(check bool) "backoff accrued" true
        (s.Fault.backoff_ms_total > 0.0))

let test_permanent_escapes () =
  let cat = Test_support.emp_dept_catalog () in
  with_faults ~seed:1 ~max_retries:2 ~backoff_ms:0.01 1.0 (fun () ->
      (match Nra.run cat "select ename from emp" with
      | Error (Exec_error.Io_error _) -> ()
      | Error e ->
          Alcotest.fail ("wrong error class: " ^ Exec_error.to_string e)
      | Ok _ -> Alcotest.fail "a permanent fault must escape");
      let s = Fault.stats () in
      Alcotest.(check bool) "escape recorded" true (s.Fault.escaped > 0);
      Alcotest.(check int) "retry budget honored" (s.Fault.escaped * 2)
        s.Fault.retried);
  (* the engine is intact once injection stops *)
  match Nra.query cat "select ename from emp" with
  | Ok rel -> Alcotest.(check int) "rows" 6 (Relation.cardinality rel)
  | Error m -> Alcotest.fail m

let test_dml_atomic_under_faults () =
  let cat = Test_support.emp_dept_catalog () in
  let gen0 = Catalog.generation cat "emp" in
  with_faults ~seed:2 ~max_retries:1 ~backoff_ms:0.01 1.0 (fun () ->
      match Nra.exec cat "delete from emp where salary > 0" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected the delete's probe to fault");
  Alcotest.(check int) "rows untouched" 6
    (Table.cardinality (Catalog.table cat "emp"));
  Alcotest.(check int) "generation untouched" gen0
    (Catalog.generation cat "emp")

(* ---------- the pluggable backoff sleeper ---------- *)

let test_pluggable_sleeper () =
  let recorded = ref [] in
  Fault.set_sleeper (fun ms -> recorded := ms :: !recorded);
  Fun.protect
    ~finally:(fun () -> Fault.set_sleeper Fault.default_sleeper)
    (fun () ->
      (* permanent faults: every retry backs off through the sleeper *)
      with_faults ~seed:3 ~max_retries:4 ~backoff_ms:2.0 1.0 (fun () ->
          (match Fault.with_retries (fun () -> Fault.inject "probe") with
          | () -> Alcotest.fail "p=1.0 must escape"
          | exception Fault.Io_fault _ -> ());
          let st = Fault.stats () in
          Alcotest.(check int) "retried through sleeper" 4 st.Fault.retried;
          Alcotest.(check int) "sleeper called per retry" 4
            (List.length !recorded);
          (* exponential: 2, 4, 8, 16 — recorded newest first *)
          Alcotest.(check (list (float 1e-9))) "exponential backoff"
            [ 16.0; 8.0; 4.0; 2.0 ] !recorded;
          Alcotest.(check (float 1e-9)) "cumulative sleep stat" 30.0
            st.Fault.backoff_ms_total))

(* ---------- allocation-pressure faults ---------- *)

let test_alloc_pressure_needs_finite_budget () =
  let cat = Test_support.emp_dept_catalog () in
  let correlated =
    "select ename from emp where exists (select * from project where \
     owner_dept = emp.dept_id)"
  in
  Fault.configure ~alloc_probability:1.0 0.0;
  Fun.protect ~finally:Fault.disable (fun () ->
      (* no finite row budget installed: the gate never consults the
         fault layer, so unbudgeted (and CI whole-suite) runs are safe *)
      (match Nra.query cat correlated with
      | Ok rel -> Alcotest.(check int) "unbudgeted ok" 5
                    (Relation.cardinality rel)
      | Error m -> Alcotest.fail m);
      Alcotest.(check int) "no draw without a budget" 0
        (Fault.stats ()).Fault.alloc_injected;
      (* a finite row budget arms it: certain exhaustion at the first
         intermediate materialization, surfacing as a row-budget kill *)
      (match
         Nra.query ~guard:(Guard.budget ~max_rows:1_000_000 ()) cat correlated
       with
      | Error m ->
          Alcotest.(check string) "row kill"
            "query killed: budget exceeded (intermediate-rows)" m
      | Ok _ -> Alcotest.fail "expected an alloc-pressure kill");
      Alcotest.(check bool) "draws counted" true
        ((Fault.stats ()).Fault.alloc_injected > 0));
  (* disabled again: the same budgeted query completes *)
  match Nra.query ~guard:(Guard.budget ~max_rows:1_000_000 ()) cat correlated with
  | Ok rel -> Alcotest.(check int) "recovered" 5 (Relation.cardinality rel)
  | Error m -> Alcotest.fail m

let test_alloc_probability_clamped () =
  Fault.configure ~alloc_probability:1.5 0.0;
  Alcotest.(check (float 0.0)) "clamped high" 1.0
    (Fault.config ()).Fault.alloc_probability;
  Fault.disable ();
  Alcotest.(check (float 0.0)) "disable zeroes" 0.0
    (Fault.config ()).Fault.alloc_probability

let () =
  Alcotest.run "faults"
    [
      ( "injection",
        [
          Alcotest.test_case "configure clamps" `Quick test_configure_clamps;
          Alcotest.test_case "seeded determinism" `Quick test_determinism;
          Alcotest.test_case "transient absorbed" `Quick
            test_transient_absorbed;
          Alcotest.test_case "permanent escapes" `Quick
            test_permanent_escapes;
          Alcotest.test_case "DML atomic under faults" `Quick
            test_dml_atomic_under_faults;
          Alcotest.test_case "pluggable sleeper" `Quick test_pluggable_sleeper;
        ] );
      ( "alloc pressure",
        [
          Alcotest.test_case "armed only under a finite row budget" `Quick
            test_alloc_pressure_needs_finite_budget;
          Alcotest.test_case "probability clamped" `Quick
            test_alloc_probability_clamped;
        ] );
    ]
