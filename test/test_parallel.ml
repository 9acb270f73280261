(* Morsel-driven parallelism: serial-vs-parallel bit-identity across
   every strategy and pool size (fault injection on), cancellation
   mid-region, and what the barrier merges: worker ticks and consumed
   spill partitions.

   The thresholds are forced down so even the tiny emp/dept corpus goes
   through the parallel kernels; on a single-core host the domains
   still exist and the chunks still cross them, so the identity checks
   exercise real cross-domain execution. *)

open Nra
open Test_support
module Iosim = Nra_storage.Iosim

let () =
  Nra.configure { (Nra.config ()) with parallel_threshold = 2; morsel = 4 }

let pool_sizes = [ 0; 1; 2; 4 ]

let with_domains domains = with_config (fun c -> { c with domains })

(* One run, bit-exactly serialized.  Faults are reseeded per run: the
   draw sequence must not depend on the pool size (workers never draw),
   and identical seeds make that observable. *)
let run_csv ~faults cat sql strategy =
  if faults then Fault.configure ~seed:23 0.02 else Fault.disable ();
  Fun.protect ~finally:Fault.disable (fun () ->
      match Nra.query ~strategy cat sql with
      | Ok rel -> Relation.to_csv rel
      | Error m ->
          Alcotest.fail
            (Printf.sprintf "%s failed on %s: %s"
               (Nra.strategy_to_string strategy)
               sql m))

let check_identical ~faults mk_cat corpus =
  List.iter
    (fun sql ->
      List.iter
        (fun strategy ->
          let reference =
            with_domains 0 (fun () ->
                run_csv ~faults (mk_cat ()) sql strategy)
          in
          List.iter
            (fun d ->
              if d > 0 then
                let got =
                  with_domains d (fun () ->
                      run_csv ~faults (mk_cat ()) sql strategy)
                in
                if got <> reference then
                  Alcotest.fail
                    (Printf.sprintf
                       "domains=%d diverges from serial for %s on: %s" d
                       (Nra.strategy_to_string strategy)
                       sql))
            pool_sizes)
        all_strategies)
    corpus

let test_emp_dept_identity () =
  check_identical ~faults:true
    (fun () -> emp_dept_catalog ())
    subquery_corpus

let tpch_corpus =
  [
    "select o_orderkey from orders where o_orderkey < 50 and o_totalprice \
     > all (select l_extendedprice from lineitem where l_orderkey = \
     o_orderkey)";
    "select p_partkey from part where p_partkey < 40 and p_retailprice < \
     any (select ps_supplycost from partsupp where ps_partkey = p_partkey)";
    "select c_custkey from customer where c_custkey < 30 and exists \
     (select * from orders where o_custkey = c_custkey)";
    (* a flat equi-join and filter: the join and morsel-filter kernels
       on their own *)
    "select o_orderkey, l_linenumber from orders, lineitem where \
     o_orderkey = l_orderkey and l_orderkey < 50";
    (* NOT EXISTS: the big side probes the small build (anti-join) *)
    "select l_orderkey, l_linenumber from lineitem where l_orderkey < 50 \
     and not exists (select * from orders where o_orderkey = l_orderkey \
     and o_orderstatus = 'F')";
    (* Query 2b's shape: ALL over a NOT EXISTS grandchild *)
    "select p_partkey from part where p_partkey < 40 and p_retailprice < \
     all (select ps_supplycost from partsupp where ps_partkey = p_partkey \
     and ps_availqty < 2000 and not exists (select * from lineitem where \
     ps_partkey = l_partkey and ps_suppkey = l_suppkey and l_quantity = \
     25))";
  ]

let tpch_catalog () =
  let cat =
    Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.002 }
  in
  Tpch.Gen.add_benchmark_indexes cat;
  cat

let test_tpch_identity () =
  (* one catalog (generation is the expensive part); queries are
     read-only so sharing it across runs is sound *)
  let cat = tpch_catalog () in
  check_identical ~faults:true (fun () -> cat) tpch_corpus

(* ---------- the frame-budget axis ----------

   Every combination of domains {0,2,4} × frames {8,∞}, faults on,
   must serialize to the same bytes as the serial, unbounded run.  The
   tpch corpus at 8 frames is the spill leg: grace join and governed
   staging spill there. *)

let with_frames frames = with_config (fun c -> { c with frames })

let check_frames_matrix mk_cat corpus =
  List.iter
    (fun sql ->
      List.iter
        (fun strategy ->
          let reference =
            with_frames Off (fun () ->
                with_domains 0 (fun () ->
                    run_csv ~faults:true (mk_cat ()) sql strategy))
          in
          List.iter
            (fun frames ->
              List.iter
                (fun d ->
                  let got =
                    with_frames frames (fun () ->
                        with_domains d (fun () ->
                            run_csv ~faults:true (mk_cat ()) sql strategy))
                  in
                  if got <> reference then
                    Alcotest.fail
                      (Printf.sprintf
                         "frames=%s domains=%d diverges for %s on: %s"
                         (match frames with
                         | Engine_config.Pages n -> string_of_int n
                         | _ -> "inf")
                         d
                         (Nra.strategy_to_string strategy)
                         sql))
                [ 0; 2; 4 ])
            [ Engine_config.Off; Pages 8 ])
        all_strategies)
    corpus

let test_frames_matrix_emp_dept () =
  (* a slice of the corpus: one flat filter, one join, one correlated
     EXISTS, one quantified comparison — the four kernel shapes — plus
     a LIKE filter, outside the columnar subset, so the row-at-a-time
     morsel filter runs at every pool size *)
  let slice =
    [
      List.nth subquery_corpus 0;
      List.nth subquery_corpus 1;
      List.nth subquery_corpus 2;
      List.nth subquery_corpus 8;
      "select ename, salary from emp where ename like '%a%'";
    ]
  in
  check_frames_matrix (fun () -> emp_dept_catalog ()) slice

let test_frames_matrix_tpch () =
  let cat = tpch_catalog () in
  check_frames_matrix (fun () -> cat) tpch_corpus

(* ---------- the pool primitive itself ---------- *)

let test_chunk_order () =
  with_domains 4 (fun () ->
      let res =
        Pool.parallel_chunks ~min_chunk:1 ~n:100 (fun _led ~lo ~hi ->
            (lo, hi))
      in
      let covered = ref 0 in
      Array.iter
        (fun (lo, hi) ->
          Alcotest.(check int) "chunks contiguous and in order" !covered lo;
          covered := hi)
        res;
      Alcotest.(check int) "chunks cover the range" 100 !covered)

let test_first_error_wins () =
  with_domains 4 (fun () ->
      match
        Pool.parallel_chunks ~min_chunk:1 ~n:10 (fun _led ~lo ~hi:_ ->
            if lo >= 3 then failwith (string_of_int lo) else lo)
      with
      | _ -> Alcotest.fail "expected a Failure"
      | exception Failure m ->
          (* chunks 3..9 all fail; the barrier re-raises the
             lowest-indexed error — what the serial loop would have hit *)
          Alcotest.(check string) "serial-order first error" "3" m)

let test_cancel_mid_region () =
  with_domains 2 (fun () ->
      let tok = Guard.token () in
      match
        Guard.with_budget
          (Guard.budget ~cancel_on:tok ())
          (fun () ->
            Pool.parallel_chunks ~min_chunk:1 ~n:64 (fun _led ~lo:_ ~hi:_ ->
                (* the first morsel cancels; later morsels poll the
                   token and are skipped *)
                Guard.cancel tok))
      with
      | _ -> Alcotest.fail "expected Killed Cancelled"
      | exception Guard.Killed Guard.Cancelled -> ())

(* ---------- ledger merge ---------- *)

(* The guard samples the wall clock at every 32nd checkpoint of a
   scope, so the checkpoint a wall budget's kill lands on shows how
   many ticks the scope was credited: the region's sixteen worker ticks
   merged at the barrier, and the barrier's own. *)
let test_ledger_merge_ticks () =
  with_domains 2 (fun () ->
      (* spawn the workers first, outside the budget *)
      ignore (Pool.parallel_chunks ~min_chunk:1 ~n:8 (fun _ ~lo:_ ~hi:_ -> ()));
      let calls = ref 0 in
      match
        Guard.with_budget
          (Guard.budget ~wall_ms:250.0 ())
          (fun () ->
            ignore
              (Pool.parallel_chunks ~min_chunk:1 ~n:8 (fun led ~lo:_ ~hi:_ ->
                   Pool.Ledger.tick led;
                   Pool.Ledger.tick led));
            Unix.sleepf 0.3;
            while true do
              incr calls;
              Guard.tick ()
            done)
      with
      | () -> assert false
      | exception Guard.Killed (Guard.Budget_exceeded Guard.Wall_clock) ->
          Alcotest.(check int) "killed at the scope's 32nd checkpoint"
            (32 - 17) !calls)

(* At the barrier the owner replays every consumed spill partition's
   page reads in chunk order, then in each chunk's consumption order,
   at every pool size.  One frame and two one-page partitions, [b]
   written last and so resident: replaying [a] first pages both in and
   writes [b] back to make room, replaying [b] first pages in [a]
   alone. *)
let test_ledger_merge_spills () =
  let module B = Nra.Bufpool in
  let replay consume =
    let spill () =
      let sp = B.Spill.create (Array.make 2 0) ~base:0 in
      B.Spill.add sp 0;
      B.Spill.add sp 1;
      B.Spill.finish sp;
      sp
    in
    let a = spill () in
    let b = spill () in
    let s0 = B.stats () in
    ignore
      (Pool.parallel_chunks ~min_chunk:1 ~n:2 (fun led ~lo ~hi:_ ->
           List.iter
             (fun sp ->
               B.Spill.iter_raw sp ignore;
               Pool.Ledger.consumed_spill led sp)
             (consume a b).(lo)));
    let s1 = B.stats () in
    (s1.B.misses - s0.B.misses, s1.B.writebacks - s0.B.writebacks)
  in
  List.iter
    (fun domains ->
      with_config
        (fun c ->
          {
            c with
            domains;
            frames = Pages 1;
            iosim = { c.iosim with Iosim.rows_per_page = 2 };
          })
      @@ fun () ->
      Fault.disable ();
      Iosim.reset ();
      let what = Printf.sprintf "%d domains: " domains in
      Alcotest.(check (pair int int)) (what ^ "chunk order")
        (2, 1)
        (replay (fun a b -> [| [ a ]; [ b ] |]));
      Alcotest.(check (pair int int)) (what ^ "consumption order")
        (1, 0)
        (replay (fun a b -> [| [ b; a ]; [] |])))
    pool_sizes

(* The accounting invariant: the same query charges the same simulated
   I/O — to the exact counter — at every pool size, because the charge
   sites (and the fault draws ahead of them) stay owner-side. *)
let test_sim_io_parity () =
  let cat = tpch_catalog () in
  let sql = List.hd tpch_corpus in
  let measure d =
    with_domains d (fun () ->
        Fault.configure ~seed:5 0.02;
        Fun.protect ~finally:Fault.disable (fun () ->
            Iosim.reset ();
            match Nra.query ~strategy:Nra.Nra_optimized cat sql with
            | Ok _ ->
                let fs = Fault.stats () in
                (Iosim.counters (), Iosim.simulated_seconds (),
                 fs.Fault.injected)
            | Error m -> Alcotest.fail m))
  in
  let ref_counters, ref_sim, ref_faults = measure 0 in
  List.iter
    (fun d ->
      let c, sim, faults = measure d in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d charges the serial counters" d)
        true
        (c = ref_counters);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "domains=%d simulated seconds" d)
        ref_sim sim;
      Alcotest.(check int)
        (Printf.sprintf "domains=%d fault draws" d)
        ref_faults faults)
    pool_sizes

let () =
  Alcotest.run "parallel"
    [
      ( "identity",
        [
          Alcotest.test_case "emp/dept corpus, all strategies, faults on"
            `Quick test_emp_dept_identity;
          Alcotest.test_case "tpch corpus, all strategies, faults on"
            `Quick test_tpch_identity;
        ] );
      ( "frames",
        [
          Alcotest.test_case "emp/dept slice, domains x frames" `Quick
            test_frames_matrix_emp_dept;
          Alcotest.test_case "tpch corpus, domains x frames" `Quick
            test_frames_matrix_tpch;
        ] );
      ( "pool",
        [
          Alcotest.test_case "morsel results keep chunk order" `Quick
            test_chunk_order;
          Alcotest.test_case "lowest-chunk error is re-raised" `Quick
            test_first_error_wins;
          Alcotest.test_case "cancellation mid-region" `Quick
            test_cancel_mid_region;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "ticks merge at the barrier" `Quick
            test_ledger_merge_ticks;
          Alcotest.test_case "spills replay in chunk order" `Quick
            test_ledger_merge_spills;
          Alcotest.test_case "simulated I/O parity across pool sizes"
            `Quick test_sim_io_parity;
        ] );
    ]
