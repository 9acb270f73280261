(* Chaos-recovery harness (ISSUE: memory governor, crash-consistent
   materialization): randomized sweeps over the whole robustness
   surface at once.

   1. Crash chaos: for every frame budget {4, 8, 32, unbounded} x
      domain count {0, 2, 4}, every statement of a small DML corpus
      is crashed at every one of its fault points; recovery must
      restore the byte-exact pre-statement catalog, twice
      (idempotence).  A WITH crashed at any of its fault points
      leaves the catalog and its log as they were, with no recovery
      at all: its CTEs are statement-local relations.

   2. Identity matrix: seeded random scheduler interleavings of
      corpus statements, per budget x domain x strategy, must each
      produce the serial-unbounded CSV byte-for-byte — out-of-core,
      parallel, and time-slicing compose.  Under the 4-frame budget
      the governor must never have kept a staging larger than the
      budget resident.

   3. Auto interleaving: two Auto statements at a tiny quantum must
      genuinely alternate slices (the attempt no longer runs inside a
      no-yield critical section) and still match serial results. *)

open Nra
open Test_support
module Scheduler = Nra_server.Scheduler
module I = Nra.Iosim

(* the harness numbers fault points and pins schedules itself; a
   CI-wide NRA_FAULT_INJECT must not perturb the draw sequence *)
let () = Fault.disable ()

let splitmix seed =
  let s = ref (Int64.of_int ((seed * 2) + 1)) in
  fun bound ->
    s := Int64.add !s 0x9E3779B97F4A7C15L;
    let z = !s in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.unsigned_rem z (Int64.of_int bound))

let budgets = [ ("4", Some 4); ("8", Some 8); ("32", Some 32); ("inf", None) ]
let domain_counts = [ 0; 2; 4 ]

(* small pages so the six-row fixtures genuinely overflow the tiny
   budgets (same shrink as the out-of-core suite) *)
let squeezed ~frames ~domains f =
  with_config
    (fun c ->
      {
        c with
        iosim = { c.iosim with I.rows_per_page = 2 };
        frames = (match frames with Some n -> Pages n | None -> Off);
        domains;
      })
  @@ fun () ->
  I.reset ();
  f ()

let fingerprint cat =
  Catalog.tables cat
  |> List.map (fun t -> (Table.name t, Relation.to_csv (Table.relation t)))
  |> List.sort compare
  |> List.map (fun (n, csv) -> n ^ "\n" ^ csv)
  |> String.concat "\n====\n"

let fresh () =
  Wal.reset ();
  I.reset ();
  Fault.configure 0.0;
  emp_dept_catalog ()

let exec_ok cat sql =
  match Nra.exec cat sql with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "statement %S failed: %s" sql m

(* ---------- 1. crash chaos across budgets and domains ---------- *)

(* one statement per WAL-logged shape *)
let chaos_corpus =
  [
    ( "insert-select",
      [ "create table hipay (emp_id int, salary int, primary key (emp_id))" ],
      "insert into hipay select emp_id, salary from emp where salary >= 60" );
    ( "update-subquery",
      [],
      "update dept set budget = 0 where not exists (select * from emp \
       where emp.dept_id = dept.dept_id and emp.salary >= 70)" );
  ]

let test_crash_chaos () =
  List.iter
    (fun (bname, frames) ->
      List.iter
        (fun domains ->
          squeezed ~frames ~domains @@ fun () ->
          List.iter
            (fun (name, setup, sql) ->
              (* count this config's fault points with a clean dry run *)
              let cat = fresh () in
              List.iter (exec_ok cat) setup;
              let d0 = Fault.draws () in
              exec_ok cat sql;
              let n = Fault.draws () - d0 in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/d%d: draws fault points" name bname
                   domains)
                true (n > 0);
              for k = 1 to n do
                let cat = fresh () in
                List.iter (exec_ok cat) setup;
                let before = fingerprint cat in
                Fault.arm_crash ~at:(Fault.draws () + k);
                (match Nra.exec cat sql with
                | exception Fault.Crash _ -> ()
                | Ok _ ->
                    Alcotest.failf
                      "%s/%s/d%d: crash at point %d/%d did not fire" name
                      bname domains k n
                | Error m ->
                    Alcotest.failf
                      "%s/%s/d%d: crash at %d/%d surfaced as error: %s" name
                      bname domains k n m);
                Fault.disarm ();
                ignore (Wal.recover cat);
                Alcotest.(check string)
                  (Printf.sprintf "%s/%s/d%d: recovered @%d/%d" name bname
                     domains k n)
                  before (fingerprint cat);
                ignore (Wal.recover cat);
                Alcotest.(check string)
                  (Printf.sprintf "%s/%s/d%d: recover twice @%d/%d" name
                     bname domains k n)
                  before (fingerprint cat)
              done)
            chaos_corpus)
        domain_counts)
    budgets

(* A WITH writes neither the catalog nor its log, so a crash at any of
   its fault points, in any budget x domain configuration, leaves both
   as they were: no recovery runs, and none is needed. *)
let test_with_leaves_no_trace () =
  let sql =
    "with rich as (select emp_id, ename, salary from emp where salary >= \
     60) select ename from rich where emp_id in (select lead_emp from \
     project)"
  in
  List.iter
    (fun (bname, frames) ->
      List.iter
        (fun domains ->
          squeezed ~frames ~domains @@ fun () ->
          let cat = fresh () in
          let d0 = Fault.draws () in
          exec_ok cat sql;
          let n = Fault.draws () - d0 in
          let what k = Printf.sprintf "%s/d%d @%d/%d" bname domains k n in
          Alcotest.(check bool) (what 0 ^ ": draws fault points") true (n > 0);
          for k = 1 to n do
            let cat = fresh () in
            let before = fingerprint cat in
            Fault.arm_crash ~at:(Fault.draws () + k);
            (match Nra.exec cat sql with
            | exception Fault.Crash _ -> ()
            | Ok _ -> Alcotest.failf "%s: crash did not fire" (what k)
            | Error m -> Alcotest.failf "%s: surfaced as error: %s" (what k) m);
            Fault.disarm ();
            Alcotest.(check string) (what k ^ ": catalog unchanged") before
              (fingerprint cat);
            Alcotest.(check bool) (what k ^ ": nothing to recover") false
              (Wal.needs_recovery cat)
          done)
        domain_counts)
    budgets

(* startup repair: a torn WAL is healed by recover_if_needed, and a
   clean WAL reports nothing to do *)
let test_startup_recovery () =
  let cat = fresh () in
  Alcotest.(check bool) "clean WAL: no recovery" true
    (Wal.recover_if_needed cat = None);
  let before = fingerprint cat in
  let d0 = Fault.draws () in
  exec_ok cat "insert into emp values (7, 'gil', 2, 55, 1)";
  let n = Fault.draws () - d0 in
  let cat = fresh () in
  let before' = fingerprint cat in
  Alcotest.(check string) "fresh worlds agree" before before';
  Fault.arm_crash ~at:(Fault.draws () + (n / 2) + 1);
  (match Nra.exec cat "insert into emp values (7, 'gil', 2, 55, 1)" with
  | exception Fault.Crash _ -> ()
  | _ -> Alcotest.fail "crash did not fire");
  Fault.disarm ();
  Alcotest.(check bool) "torn WAL detected" true (Wal.needs_recovery cat);
  (match Wal.recover_if_needed cat with
  | Some _ -> ()
  | None -> Alcotest.fail "startup recovery did not run");
  Alcotest.(check string) "startup recovery healed the catalog" before
    (fingerprint cat);
  Alcotest.(check bool) "healed WAL: nothing further" true
    (Wal.recover_if_needed cat = None)

(* ---------- 2. identity matrix under interleaving ---------- *)

let corpus = Array.of_list subquery_corpus

let interleaved_results ~seed ~strategy cat sqls =
  let rand = splitmix seed in
  let chooser ~now:_ ids = List.nth ids (rand (List.length ids)) in
  let sch = Scheduler.create ~quantum_ms:0.02 ~chooser () in
  let n = Array.length sqls in
  let results = Array.make n None in
  Array.iteri
    (fun i sql ->
      ignore
        (Scheduler.spawn sch
           (fun () -> results.(i) <- Some (Nra.query ~strategy cat sql))))
    sqls;
  Scheduler.run_until_idle sch;
  Alcotest.(check int) "all tasks retired" 0 (Scheduler.alive sch);
  Array.map
    (function
      | Some r -> r
      | None -> Alcotest.fail "task finished without a result")
    results

let test_identity_matrix () =
  (* serial, unbounded, single-domain reference CSVs *)
  let reference strategy =
    with_config (fun c ->
        { c with iosim = { c.iosim with I.rows_per_page = 2 } })
    @@ fun () ->
    I.reset ();
    let cat = emp_dept_catalog () in
    ignore (Nra.exec cat "analyze");
    Array.map
      (fun sql ->
        match Nra.query ~strategy cat sql with
        | Ok rel -> Ok (Relation.to_csv rel)
        | Error m -> Error m)
      corpus
  in
  List.iter
    (fun strategy ->
      let refs = reference strategy in
      List.iter
        (fun (bname, frames) ->
          List.iter
            (fun domains ->
              squeezed ~frames ~domains @@ fun () ->
              let cat = emp_dept_catalog () in
              ignore (Nra.exec cat "analyze");
              for seed = 0 to 1 do
                let idx =
                  Array.init 4 (fun k ->
                      ((seed * 7) + (k * 5)) mod Array.length corpus)
                in
                let sqls = Array.map (fun i -> corpus.(i)) idx in
                let results =
                  interleaved_results ~seed ~strategy cat sqls
                in
                Array.iteri
                  (fun k r ->
                    let what =
                      Printf.sprintf "%s frames=%s domains=%d seed=%d: %s"
                        (Nra.strategy_to_string strategy)
                        bname domains seed sqls.(k)
                    in
                    match (refs.(idx.(k)), r) with
                    | Ok want, Ok rel ->
                        Alcotest.(check string)
                          (what ^ ": CSV identical to serial-unbounded")
                          want (Relation.to_csv rel)
                    | Error want, Error got ->
                        Alcotest.(check string) (what ^ ": same error") want
                          got
                    | Ok _, Error e ->
                        Alcotest.failf "%s: failed where serial ran: %s"
                          what e
                    | Error e, Ok _ ->
                        Alcotest.failf "%s: ran where serial failed: %s"
                          what e)
                  results;
                (* the governor's structural bound: no unspilled staging
                   ever exceeded the frame budget *)
                match frames with
                | Some f ->
                    let gv = Governor.stats () in
                    Alcotest.(check bool)
                      (Printf.sprintf
                         "frames=%s domains=%d seed=%d: largest resident \
                          staging %d page(s) within budget"
                         bname domains seed gv.Governor.max_resident_pages)
                      true
                      (gv.Governor.max_resident_pages <= f)
                | None -> ()
              done)
            domain_counts)
        budgets)
    [ Nra.Nra_optimized; Nra.Auto ]

(* WITH under time-slicing: CTEs are statement-local, so statements
   that bind the same CTE name ([rich]) interleave freely and match
   serial *)
let test_with_under_interleaving () =
  let w1 =
    "with rich as (select emp_id, ename, salary from emp where salary >= \
     60) select ename from rich where salary >= 70"
  and w2 =
    "with leads as (select lead_emp from project where hours >= 10) \
     select ename from emp where emp_id in (select lead_emp from leads)"
  and w3 =
    "with rich as (select dept_id, dname from dept where budget >= 50) \
     select dname from rich where dept_id in (select dept_id from emp)"
  in
  let cat = emp_dept_catalog () in
  let serial = List.map (fun s -> Nra.query cat s) [ w1; w2; w3 ] in
  for seed = 0 to 4 do
    let results =
      interleaved_results ~seed ~strategy:Nra.Nra_optimized cat
        [| w1; w2; w3 |]
    in
    List.iteri
      (fun i want ->
        match (want, results.(i)) with
        | Ok a, Ok b ->
            Alcotest.(check string)
              (Printf.sprintf "seed %d: WITH %d matches serial" seed i)
              (Relation.to_csv a) (Relation.to_csv b)
        | _ -> Alcotest.fail "WITH under interleaving errored")
      serial;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: no torn WAL statement left" seed)
      false (Wal.needs_recovery cat)
  done

(* ---------- 3. Auto statements genuinely interleave ---------- *)

let test_auto_interleaves () =
  (* serial and unbuffered, whatever the environment: a parallel region
     is a no-yield critical section, which would leave these small
     statements too few scheduling points to alternate *)
  with_config (fun c -> { c with domains = 0; frames = Off }) @@ fun () ->
  let cat = emp_dept_catalog () in
  ignore (Nra.exec cat "analyze");
  let q1 =
    "select dname from dept where budget < any (select salary from emp \
     where emp.dept_id = dept.dept_id and exists (select * from project \
     where project.lead_emp = emp.emp_id))"
  and q2 =
    "select ename from emp where salary > (select avg(salary) from emp \
     e2 where e2.dept_id = emp.dept_id)"
  in
  let serial = [| Nra.query ~strategy:Nra.Auto cat q1;
                  Nra.query ~strategy:Nra.Auto cat q2 |] in
  (* round-robin chooser: always hand the slice to the other live
     task, and record every pick.  Before the Auto attempt ran under
     with_no_yield this schedule degenerated to serial — one task held
     the engine until it finished. *)
  let picks = ref [] in
  let last = ref (-1) in
  let chooser ~now:_ ids =
    let pick =
      match List.filter (fun i -> i <> !last) ids with
      | alt :: _ -> alt
      | [] -> List.hd ids
    in
    last := pick;
    picks := pick :: !picks;
    pick
  in
  let sch = Scheduler.create ~quantum_ms:0.005 ~chooser () in
  let results = Array.make 2 None in
  ignore
    (Scheduler.spawn sch (fun () ->
         results.(0) <- Some (Nra.query ~strategy:Nra.Auto cat q1)));
  ignore
    (Scheduler.spawn sch (fun () ->
         results.(1) <- Some (Nra.query ~strategy:Nra.Auto cat q2)));
  Scheduler.run_until_idle sch;
  let order = List.rev !picks in
  (* a genuine interleaving: some task regained a slice after the
     other ran (an a..b..a subsequence) *)
  let rec alternated seen_pairs = function
    | a :: (b :: _ as rest) ->
        if a <> b && List.mem (b, a) seen_pairs then true
        else alternated ((a, b) :: seen_pairs) rest
    | _ -> false
  in
  Alcotest.(check bool)
    (Printf.sprintf "auto statements alternated (%d scheduling points)"
       (List.length order))
    true
    (alternated [] order);
  Array.iteri
    (fun i r ->
      match (serial.(i), r) with
      | Ok a, Some (Ok b) ->
          Alcotest.(check bool)
            (Printf.sprintf "auto statement %d matches serial" i)
            true (Relation.equal_bag a b)
      | _ -> Alcotest.fail "auto statement errored under interleaving")
    results

let () =
  Alcotest.run "chaos"
    [
      ( "crash",
        [
          Alcotest.test_case "every budget x domains x fault point" `Quick
            test_crash_chaos;
          Alcotest.test_case "WITH leaves no trace" `Quick
            test_with_leaves_no_trace;
          Alcotest.test_case "startup recovery" `Quick
            test_startup_recovery;
        ] );
      ( "identity",
        [
          Alcotest.test_case "interleaved matrix matches serial-unbounded"
            `Quick test_identity_matrix;
          Alcotest.test_case "WITH under interleaving" `Quick
            test_with_under_interleaving;
        ] );
      ( "auto",
        [
          Alcotest.test_case "auto statements interleave" `Quick
            test_auto_interleaves;
        ] );
    ]
