(* The cooperative scheduler (ISSUE: truly interleaved statements on
   the virtual clock): seeded randomized interleaving-equivalence
   against serial execution across every strategy, virtual-clock
   monotonicity, no starvation under random admission bursts,
   preemption within one quantum of budget exhaustion, and fault-retry
   backoff as virtual (never wall-clock) time. *)

open Nra
open Test_support
module Scheduler = Nra_server.Scheduler
module Server = Nra_server.Server
module Session = Nra_server.Session
module Admission = Nra_server.Admission
module Iosim = Nra_storage.Iosim

(* splitmix64: the tests' own seeded PRNG, so every schedule is
   reproducible from its seed alone *)
let splitmix seed =
  let s = ref (Int64.of_int (seed * 2 + 1)) in
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

let corpus = Array.of_list subquery_corpus

(* ---------- randomized interleaving equivalence ----------

   N statements spawned as concurrent scheduler tasks, the schedule
   driven by a seeded random chooser at a seed-dependent quantum: every
   interleaving must produce exactly the serial results, for every
   strategy including auto (whose attempt/rollback protocol is the
   delicate part under interleaving). *)

let total_yields = ref 0

let interleaved_results ~seed ~quantum_ms ~strategy cat sqls =
  let rand = splitmix seed in
  let chooser ~now:_ ids = List.nth ids (rand (List.length ids)) in
  let sch = Scheduler.create ~quantum_ms ~chooser () in
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
  total_yields := !total_yields + (Scheduler.stats sch).Scheduler.yields;
  Array.map
    (function
      | Some r -> r
      | None -> Alcotest.fail "task finished without a result")
    results

let check_matches_serial ~what serial interleaved sqls =
  Array.iteri
    (fun i sql ->
      match (serial.(i), interleaved.(i)) with
      | Ok a, Ok b ->
          if not (Relation.equal_bag a b) then
            Alcotest.fail
              (Format.asprintf
                 "%s: interleaved result differs from serial on:@.%s@.serial:@.%a@.interleaved:@.%a"
                 what sql Relation.pp a Relation.pp b)
      | Error a, Error b -> Alcotest.(check string) (what ^ ": same error") a b
      | Ok _, Error e ->
          Alcotest.fail
            (Printf.sprintf "%s: interleaved failed where serial ran (%s): %s"
               what sql e)
      | Error e, Ok _ ->
          Alcotest.fail
            (Printf.sprintf "%s: interleaved ran where serial failed (%s): %s"
               what sql e))
    sqls

let test_interleaving_equivalence () =
  let cat = emp_dept_catalog () in
  ignore (Nra.exec cat "analyze");
  let quanta = [| 0.01; 0.05; 0.2 |] in
  let seeds_per_n = 18 in
  (* 3 population sizes x 18 seeds = 54 randomized schedules, each
     replayed under every strategy *)
  List.iter
    (fun n ->
      for seed = 0 to seeds_per_n - 1 do
        let sqls =
          Array.init n (fun k ->
              corpus.(((seed * 7) + (k * 5)) mod Array.length corpus))
        in
        let quantum_ms = quanta.(seed mod Array.length quanta) in
        List.iter
          (fun strategy ->
            let serial = Array.map (Nra.query ~strategy cat) sqls in
            let interleaved =
              interleaved_results ~seed ~quantum_ms ~strategy cat sqls
            in
            check_matches_serial
              ~what:
                (Printf.sprintf "n=%d seed=%d q=%g %s" n seed quantum_ms
                   (Nra.strategy_to_string strategy))
              serial interleaved sqls)
          all_strategies
      done)
    [ 2; 4; 8 ];
  (* the whole point is that these schedules are NOT serial *)
  Alcotest.(check bool)
    (Printf.sprintf "schedules interleaved (%d yields)" !total_yields)
    true (!total_yields > 0)

(* ---------- statements suspended mid-probe ----------

   The four Query 1-JA statements at a zero quantum: every guard
   checkpoint yields, the one per probed row included, so several
   statements sit suspended inside their probes at once, each holding
   its borrowed buffers (the join's table and offset vectors, the
   child's selection vector).  Results must equal the serial ones under
   every strategy, and for the strategies that probe, the high-water
   count of live borrows must exceed what the statements reach one at a
   time — the proof that the probes overlapped. *)

let ja_cat =
  lazy (Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.002 })

let ja_sqls =
  let module Q = Tpch.Queries in
  let lo, hi = Q.q1_window ~outer_fraction:0.3 in
  Array.of_list
    (List.map
       (fun link -> Q.q1_ja ~link ~date_lo:lo ~date_hi:hi)
       [ Q.Ja_in; Q.Ja_not_in; Q.Ja_gt_all; Q.Ja_scalar_eq ])

let test_mid_probe_interleaving () =
  let cat = Lazy.force ja_cat in
  (* serial kernels (a parallel region is a no-yield critical
     section) and no rewrites, so both NRA strategies probe per row *)
  with_config (fun c -> { c with domains = 0; rules = [] }) @@ fun () ->
  List.iteri
    (fun seed strategy ->
      let name = Nra.strategy_to_string strategy in
      Scratch.reset_high_water ();
      let serial = Array.map (Nra.query ~strategy cat) ja_sqls in
      let alone = Scratch.high_water () in
      Scratch.reset_high_water ();
      let interleaved =
        interleaved_results ~seed ~quantum_ms:0.0 ~strategy cat ja_sqls
      in
      let together = Scratch.high_water () in
      check_matches_serial ~what:name serial interleaved ja_sqls;
      if List.mem strategy [ Nra.Nra_original; Nra.Nra_optimized ] then
        Alcotest.(check bool)
          (Printf.sprintf
             "%s: probes overlapped (%d live borrows at once, %d alone)" name
             together alone)
          true
          (alone > 0 && together >= 2 * alone);
      Alcotest.(check int) (name ^ ": every buffer returned") 0
        (Scratch.live ()))
    all_strategies

(* ---------- virtual-clock monotonicity ---------- *)

let test_clock_monotone () =
  let cat = emp_dept_catalog () in
  let rand = splitmix 424242 in
  let nows = ref [] in
  let chooser ~now ids =
    nows := now :: !nows;
    List.nth ids (rand (List.length ids))
  in
  let sch = Scheduler.create ~quantum_ms:0.02 ~chooser () in
  for i = 0 to 5 do
    ignore
      (Scheduler.spawn sch (fun () ->
           ignore (Nra.query cat corpus.(i * 3 mod Array.length corpus))))
  done;
  (* a sleeper too: wake-time jumps must also be monotone *)
  ignore
    (Scheduler.spawn sch (fun () ->
         try
           Nra.Fault.with_retries (fun () ->
               raise (Nra.Fault.Io_fault "synthetic"))
         with Nra.Fault.Io_fault _ -> ()));
  Scheduler.run_until_idle sch;
  let observed = List.rev !nows in
  Alcotest.(check bool) "scheduling points observed" true
    (List.length observed > 10);
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        if a > b then
          Alcotest.fail
            (Printf.sprintf "clock went backwards: %f then %f" a b)
        else monotone rest
    | _ -> ()
  in
  monotone observed;
  Alcotest.(check bool) "final clock past every scheduling point" true
    (Scheduler.now sch >= List.fold_left Float.max 0.0 observed)

(* ---------- no starvation under random admission bursts ---------- *)

let test_no_starvation () =
  let cat = emp_dept_catalog () in
  for seed = 0 to 9 do
    let rand = splitmix (1000 + seed) in
    let srv =
      Server.create
        ~config:
          {
            Server.default_config with
            admission =
              {
                Admission.max_concurrent = 3;
                queue_len = 10;
                queue_timeout_ms = Some 1e9;
              };
            quantum_ms = 0.05;
          }
        cat
    in
    let sessions = Array.init 4 (fun _ -> Server.session srv ()) in
    let submitted = ref 0 and immediate = ref 0 in
    let t = ref 0.0 in
    for _ = 1 to 30 do
      (* bursty: arrival gaps of 0 pile statements onto the same instant *)
      t := !t +. (float_of_int (rand 3) *. 0.05);
      incr submitted;
      match
        Server.submit srv ~at:!t
          sessions.(rand (Array.length sessions))
          corpus.(rand (Array.length corpus))
      with
      | `Done _ -> incr immediate
      | `Running _ | `Queued -> ()
    done;
    let late = Server.finish srv in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: every statement reached an outcome" seed)
      !submitted
      (!immediate + List.length late);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: no task left behind" seed)
      0
      (Scheduler.alive (Server.scheduler srv))
  done

(* ---------- preemption within one quantum of exhaustion ----------

   Synthetic tasks with controlled charges (one 0.1 ms page per step)
   pin down the bound exactly: a task whose budget trips mid-quantum is
   killed at its next checkpoint, so its recorded spend can overshoot
   the limit by at most one charge — and never by a whole quantum of
   someone else's work, because suspended tasks accrue nothing. *)

let test_preemption_within_quantum () =
  (* this test pins exact charge accounting with raw Iosim calls (no
     retry wrapper), so a CI-wide NRA_FAULT_INJECT run must not perturb
     it *)
  Nra.Fault.disable ();
  let quantum = 0.5 in
  let charge_ms = 0.1 in
  let limit = 1.0 in
  let sch = Scheduler.create ~quantum_ms:quantum () in
  let victim_spend = ref nan and victim_killed = ref false in
  ignore
    (Scheduler.spawn sch (fun () ->
         (try
            Guard.with_budget
              (Guard.budget ~sim_io_ms:limit ())
              (fun () ->
                while true do
                  Iosim.charge_scan_rows 100;
                  Guard.tick ()
                done)
          with Guard.Killed (Guard.Budget_exceeded Guard.Sim_io) ->
            victim_killed := true);
         victim_spend := (Guard.last_spend ()).Guard.sim_io_ms));
  (* concurrent bulk work: its charges must not count against (or
     delay the kill of) the victim *)
  ignore
    (Scheduler.spawn sch (fun () ->
         for _ = 1 to 200 do
           Iosim.charge_scan_rows 100;
           Guard.tick ()
         done));
  Scheduler.run_until_idle sch;
  Alcotest.(check bool) "victim killed on budget" true !victim_killed;
  Alcotest.(check bool)
    (Printf.sprintf "spend %f exceeds the limit" !victim_spend)
    true
    (!victim_spend > limit);
  Alcotest.(check bool)
    (Printf.sprintf
       "overshoot %f bounded by one charge, far inside one quantum"
       (!victim_spend -. limit))
    true
    (!victim_spend -. limit <= charge_ms +. 1e-9);
  let st = Scheduler.stats sch in
  Alcotest.(check bool) "the schedule actually interleaved" true
    (st.Scheduler.yields > 0)

(* ---------- fault-retry backoff is virtual time ---------- *)

let test_backoff_virtual () =
  let backoff = 50.0 in
  let retries = 6 in
  (* probability 0: no injection on real read paths; with_retries still
     retries the synthetic fault below and sleeps the backoff *)
  Nra.Fault.configure ~seed:1 ~max_retries:retries ~backoff_ms:backoff 0.0;
  Fun.protect ~finally:Nra.Fault.disable @@ fun () ->
  let bt0 = (Nra.Fault.stats ()).Nra.Fault.backoff_ms_total in
  let cat = emp_dept_catalog () in
  let sch = Scheduler.create ~quantum_ms:0.05 () in
  let sleeper_done = ref nan and query_done = ref nan in
  let escaped = ref false in
  ignore
    (Scheduler.spawn sch (fun () ->
         (try
            Nra.Fault.with_retries (fun () ->
                raise (Nra.Fault.Io_fault "synthetic"))
          with Nra.Fault.Io_fault _ -> escaped := true);
         sleeper_done := Scheduler.now sch));
  ignore
    (Scheduler.spawn sch (fun () ->
         ignore (Nra.query cat corpus.(4));
         query_done := Scheduler.now sch));
  let host_t0 = Unix.gettimeofday () in
  Scheduler.run_until_idle sch;
  let host_s = Unix.gettimeofday () -. host_t0 in
  (* a 6-retry exponential storm at 50 ms base = 3150 ms of virtual
     backoff; the host must not have slept it *)
  let total = (Nra.Fault.stats ()).Nra.Fault.backoff_ms_total -. bt0 in
  Alcotest.(check bool) "the storm exhausted its retries" true !escaped;
  Alcotest.(check bool)
    (Printf.sprintf "backoff accounted (%.0f ms)" total)
    true
    (total >= backoff *. 63.0 -. 1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "virtual clock slept it (%.0f ms)" !sleeper_done)
    true
    (!sleeper_done >= total -. 1e-6);
  (* the host time stays out of the passing output, which CI compares
     byte for byte across two runs *)
  if host_s >= 1.0 then Alcotest.failf "the host slept it (%.3f s)" host_s;
  (* the concurrent statement finished while the storm was asleep *)
  Alcotest.(check bool)
    (Printf.sprintf "concurrent progress (query %.2f ms, storm %.2f ms)"
       !query_done !sleeper_done)
    true
    (!query_done < !sleeper_done);
  let st = Scheduler.stats sch in
  Alcotest.(check bool) "sleeps were taken as suspensions" true
    (st.Scheduler.sleeps >= retries);
  Alcotest.(check bool) "idle gaps were jumped, not slept" true
    (st.Scheduler.idle_jumped_ms > 0.0)

(* ---------- determinism: same seed, same schedule ---------- *)

let test_deterministic_replay () =
  (* replay pins the exact schedule; a seeded global fault trace would
     diverge between the two runs (draws are consumed in sequence), so
     opt out of a CI-wide NRA_FAULT_INJECT *)
  Nra.Fault.disable ();
  let cat = emp_dept_catalog () in
  let run () =
    (* start from a cold page cache both times: cache warmth changes
       charge granularity, and with it the schedule *)
    Iosim.reset ();
    let sch = Scheduler.create ~quantum_ms:0.05 () in
    let order = ref [] in
    for i = 0 to 4 do
      ignore
        (Scheduler.spawn sch
           (fun () ->
             ignore (Nra.query cat corpus.(i));
             order := i :: !order))
    done;
    Scheduler.run_until_idle sch;
    (List.rev !order, (Scheduler.stats sch).Scheduler.slices)
  in
  let o1, s1 = run () in
  let o2, s2 = run () in
  Alcotest.(check (list int)) "same completion order" o1 o2;
  Alcotest.(check int) "same slice count" s1 s2

(* ---------- the slice test allocates nothing ----------

   Inside a task every guard checkpoint calls the scheduler's hook, and
   checkpoints run once per probed row and once per group: the hook's
   "has this slice used its quantum?" test must not allocate. *)

let test_tick_allocation () =
  let sch = Scheduler.create ~quantum_ms:1e9 () in
  let n = 1_000_000 in
  let words = ref Float.nan in
  ignore
    (Scheduler.spawn sch (fun () ->
         let before = Gc.minor_words () in
         for _ = 1 to n do
           Guard.tick ()
         done;
         words := Gc.minor_words () -. before));
  Scheduler.run_until_idle sch;
  let per_tick = !words /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per checkpoint inside a task" per_tick)
    true (per_tick < 0.01)

(* A quantum expiry with no other task to run keeps its slice boundary
   in place: at quantum 0 a lone task's every checkpoint ends a slice,
   and none of them suspends it or allocates.  A budgeted task folds
   its guard scope at each one, also without allocating.  Two
   equal-priority tasks alternate instead, so each of their boundaries
   is a yield/resume pair, which may allocate what [perform] needs (the
   continuation) and the [Suspended] box holding it, plus, for a
   budgeted task, the detached guard context.  The tasks charge no I/O,
   so no fault is drawn and no frame touched at any stress point. *)
let test_slice_allocation () =
  let n = 100_000 in
  (* [tasks] tasks of [n] checkpoints each: minor words and stats *)
  let run ~tasks ~budgeted =
    let sch = Scheduler.create ~quantum_ms:0.0 () in
    let body () =
      for _ = 1 to n do
        Guard.tick ()
      done
    in
    for _ = 1 to tasks do
      ignore
        (Scheduler.spawn sch (fun () ->
             if budgeted then
               Guard.with_budget (Guard.budget ~max_rows:n ()) body
             else body ()))
    done;
    let before = Gc.minor_words () in
    Scheduler.run_until_idle sch;
    (Gc.minor_words () -. before, Scheduler.stats sch)
  in
  List.iter
    (fun (budgeted, what, per_yield_cap) ->
      let words, s = run ~tasks:1 ~budgeted in
      (* the first slice, then one per checkpoint *)
      Alcotest.(check int) "one slice per checkpoint" (n + 1)
        s.Scheduler.slices;
      Alcotest.(check int) "no yield without another task" 0
        s.Scheduler.yields;
      let per_checkpoint = words /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%.3f minor words per %sin-place boundary"
           per_checkpoint what)
        true (per_checkpoint < 0.01);
      let words, s = run ~tasks:2 ~budgeted in
      Alcotest.(check int) "one yield per checkpoint" (2 * n)
        s.Scheduler.yields;
      let per_yield = words /. float_of_int s.Scheduler.yields in
      Alcotest.(check bool)
        (Printf.sprintf "%.1f minor words per %syield/resume pair" per_yield
           what)
        true
        (per_yield <= per_yield_cap))
    [ (false, "", 6.0); (true, "budgeted ", 10.0) ]

(* Every quantum expiry asks whether another runnable task comes
   first, which compares priorities.  The server's priority asks
   whether the task's session is nearly out of simulated I/O
   ([Session.urgent], as [Server] does).  One session is urgent and one
   is not, so the urgent task runs first and, with the other task
   behind it in the order, keeps every boundary in place: both classes
   are read at each of its checkpoints, and nothing is allocated. *)
let test_priority_allocation () =
  let sch = Scheduler.create ~quantum_ms:0.0 () in
  let n = 50_000 in
  let order = ref [] in
  let task name session =
    ignore
      (Scheduler.spawn sch
         ~prio:(fun () -> if Session.urgent session ~within:5.0 then 0 else 1)
         (fun () ->
           for _ = 1 to n do
             Guard.tick ()
           done;
           order := name :: !order))
  in
  task "bulk" (Session.create ~sim_io_ms:1e9 ());
  task "urgent" (Session.create ~sim_io_ms:1.0 ());
  let before = Gc.minor_words () in
  Scheduler.run_until_idle sch;
  let words = Gc.minor_words () -. before in
  let s = Scheduler.stats sch in
  Alcotest.(check (list string)) "the urgent task finishes first"
    [ "urgent"; "bulk" ] (List.rev !order);
  Alcotest.(check int) "no yield" 0 s.Scheduler.yields;
  let per_checkpoint = words /. float_of_int (2 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per checkpoint with two prioritized \
                     tasks"
       per_checkpoint)
    true (per_checkpoint < 0.01)

(* ---------- an in-place boundary is exact ----------

   The same statements run once on a plain scheduler, where each runs
   alone and every quantum expiry stays in place, and once under a
   chooser, which makes every expiry suspend and resume the task.  The
   two must agree to the bit on the virtual clock, the slice count,
   each statement's recorded spend and the I/O counters, and return
   the same results.  The statements cover a plain run, a budget kill,
   and an Auto attempt killed at its bare estimate and rerun.  That
   attempt is killed at its first checkpoint, so a last statement
   repeats Auto's protocol with charges fine enough for the attempt to
   span several boundaries.  Its rollback pulls the I/O ledger below
   the clock's last sync, and its rerun is cheaper than the attempt, so
   the statement ends while the clock's clamp holds it at that sync:
   there the clock tells a boundary that synced from one that did
   not. *)

let exact_cat =
  lazy
    (let cat =
       Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.005 }
     in
     Tpch.Gen.add_benchmark_indexes cat;
     ignore (Nra.exec cat "analyze");
     cat)

let fingerprint = function
  | Ok rel -> Digest.to_hex (Digest.string (Relation.to_csv rel))
  | Error e -> "error: " ^ e

(* Auto's attempt and fallback over synthetic 0.1 ms charges: ten
   charges under a 1 ms attempt budget, killed at the eleventh, then a
   rerun of five *)
let fine_grained_fallback () =
  let charge n =
    for _ = 1 to n do
      Iosim.charge_scan_rows 100;
      Guard.tick ()
    done
  in
  let led = Iosim.push_ledger () in
  match
    Guard.with_budget (Guard.budget ~sim_io_ms:1.0 ()) (fun () -> charge 100)
  with
  | () -> Alcotest.fail "the attempt outlived its budget"
  | exception Guard.Killed (Guard.Budget_exceeded _) ->
      Iosim.pop_ledger led;
      Iosim.uncharge led;
      charge 5;
      "killed and rerun"

let exact_statements cat =
  let module Q = Tpch.Queries in
  let lo, hi = Q.q1_window ~outer_fraction:0.005 in
  let ja = Q.q1_ja ~link:Q.Ja_in ~date_lo:lo ~date_hi:hi in
  let q3b =
    let size_lo, size_hi = Q.size_window ~outer_fraction:0.06 in
    Q.q3 ~quant:Q.Any ~exists:true ~variant:Q.B ~size_lo ~size_hi
      ~availqty_max:(Q.availqty_bound ~fraction:0.02) ~quantity:25
  in
  let query ?(sim_io_ms = 1e9) strategy sql () =
    let guard = Guard.budget ~sim_io_ms () in
    fingerprint (Nra.query ~strategy ~guard cat sql)
  in
  (* each under a budget of its own, which records its spend *)
  [
    ("Query 1-JA", query Nra.Nra_optimized ja);
    ("Query 1-JA killed", query ~sim_io_ms:0.3 Nra.Nra_optimized ja);
    ("Query 3b under Auto", query Nra.Auto q3b);
    ( "a fine-grained fallback",
      fun () ->
        Guard.with_budget (Guard.budget ~sim_io_ms:1e9 ()) fine_grained_fallback
    );
  ]

(* each statement's (result, spend, clock at its end) and the whole
   run's (clock, stats, I/O counters, guard events) *)
let boundary_run ?chooser cat =
  Iosim.reset ();
  Guard.reset_events ();
  let sch = Scheduler.create ~quantum_ms:0.05 ?chooser () in
  let per_statement =
    List.map
      (fun (name, body) ->
        let out = ref None in
        ignore
          (Scheduler.spawn sch (fun () ->
               let r = body () in
               let sp = Guard.last_spend () in
               out :=
                 Some
                   (Printf.sprintf "%s: %s, %h ms sim-I/O, %d rows, at %h ms"
                      name r sp.Guard.sim_io_ms sp.Guard.rows
                      (Scheduler.now sch))));
        Scheduler.run_until_idle sch;
        match !out with
        | Some line -> line
        | None -> Alcotest.fail (name ^ ": the task left no outcome"))
      (exact_statements cat)
  in
  (per_statement, Scheduler.now sch, Scheduler.stats sch, Iosim.counters (),
   Guard.events ())

let test_inplace_exact () =
  Nra.Fault.disable ();
  with_config (fun c ->
      { c with domains = 0; auto_overrun = 1.0; auto_floor_ms = 0.0 })
  @@ fun () ->
  Fun.protect ~finally:Guard.reset_events @@ fun () ->
  let cat = Lazy.force exact_cat in
  let lines, now, st, io, ev = boundary_run cat in
  let lines', now', st', io', ev' =
    boundary_run ~chooser:(fun ~now:_ ids -> List.hd ids) cat
  in
  Alcotest.(check (list string)) "same statements, to the bit" lines' lines;
  Alcotest.(check string) "same virtual clock"
    (Printf.sprintf "%h" now') (Printf.sprintf "%h" now);
  Alcotest.(check int) "same slices" st'.Scheduler.slices st.Scheduler.slices;
  Alcotest.(check bool)
    (Printf.sprintf "every boundary in place (%d slices, %d yields)"
       st.Scheduler.slices st.Scheduler.yields)
    true
    (st.Scheduler.yields = 0 && st.Scheduler.slices > 3);
  (* every slice but each statement's first began at a yield *)
  Alcotest.(check int) "every boundary suspended under the chooser"
    (st'.Scheduler.slices - List.length lines)
    st'.Scheduler.yields;
  Alcotest.(check (list int)) "same I/O counters"
    [ io'.Iosim.seq_pages; io'.Iosim.rand_pages; io'.Iosim.fetched_rows ]
    [ io.Iosim.seq_pages; io.Iosim.rand_pages; io.Iosim.fetched_rows ];
  (* both paths of interest were taken *)
  Alcotest.(check bool) "a statement was killed on budget" true
    (ev.Guard.budget_kills > 0
    && ev'.Guard.budget_kills = ev.Guard.budget_kills);
  Alcotest.(check bool) "an Auto attempt fell back" true
    (ev.Guard.auto_fallbacks > 0
    && ev'.Guard.auto_fallbacks = ev.Guard.auto_fallbacks)

(* ---------- head-of-line blocking ----------

   A few long statements (the paper's Query 1 over a wide window)
   salted into a stream of short nested lookups over the dimension
   tables, two slots, nothing turned away.  At quantum [infinity] a
   long statement holds its slot for its whole simulated I/O, so the
   shorts queue behind it; at a finite quantum it yields, and the
   shorts' tail latency on the virtual clock must fall.  A fixed
   strategy, not Auto: an Auto attempt is a no-yield critical section. *)

let hol_catalog =
  lazy (Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.005 })

let hol_short =
  "select s_name from supplier where s_nationkey in (select n_nationkey \
   from nation where n_regionkey = 2)"

let hol_long =
  let lo, hi =
    Tpch.Queries.q1_window ~outer_fraction:(16_000. /. 1_500_000.)
  in
  Tpch.Queries.q1 ~date_lo:lo ~date_hi:hi

(* (outcomes, p95 of the short statements' latency) at one quantum *)
let hol_run ~quantum_ms =
  let srv =
    Server.create
      ~config:
        {
          Server.default_config with
          admission =
            {
              Admission.max_concurrent = 2;
              queue_len = 4096;
              queue_timeout_ms = None;
            };
          strategy = Nra.Nra_optimized;
          quantum_ms;
        }
      (Lazy.force hol_catalog)
  in
  let clients, shorts, longs, gap_ms = (4, 12, 3, 10.0) in
  let sessions = Array.init clients (fun _ -> Server.session srv ()) in
  let outcomes = ref [] in
  let note os = outcomes := List.rev_append os !outcomes in
  let t = ref 0.0 in
  let submit i sql =
    (match Server.submit srv ~at:!t sessions.(i) sql with
    | `Done o -> note [ o ]
    | `Running _ | `Queued -> ());
    note (Server.drain srv);
    t := !t +. gap_ms
  in
  (* waves of one short per client, every (shorts/longs)-th wave
     preceded by a long from client 0 *)
  for k = 0 to shorts - 1 do
    if k mod (shorts / longs) = 0 then submit 0 hol_long;
    for i = 0 to clients - 1 do
      submit i hol_short
    done
  done;
  note (Server.finish srv);
  let lat =
    List.filter_map
      (fun o ->
        if String.equal o.Server.sql hol_short then
          Some (Server.latency_ms o)
        else None)
      !outcomes
    |> Array.of_list
  in
  Array.sort compare lat;
  let n = Array.length lat in
  let p95 =
    lat.(min (n - 1) (int_of_float ((0.95 *. float_of_int (n - 1)) +. 0.5)))
  in
  (List.length !outcomes, p95)

let test_head_of_line () =
  let n_inf, p95_inf = hol_run ~quantum_ms:infinity in
  let n_fin, p95_fin = hol_run ~quantum_ms:0.5 in
  Alcotest.(check int) "same number of outcomes at both quanta" n_inf n_fin;
  Alcotest.(check bool)
    (Printf.sprintf "short p95 %.2f ms at quantum 0.5 < %.2f ms at inf"
       p95_fin p95_inf)
    true (p95_fin < p95_inf)

(* ---------- a pool charge that sleeps ----------

   A fault's backoff suspends the task inside the buffer pool: here in
   the writeback of the frame it is evicting.  The frame is pinned for
   the length of the charge and already counts as gone, so the other
   task neither writes it back a second time nor evicts the page it
   just read: it evicts the first task's page instead.  When the first
   task resumes, it drops its victim by page, not by the slot it held
   before the sleep. *)
let test_pool_charge_sleeps () =
  with_config (fun c ->
      {
        c with
        frames = Pages 1;
        faults = { c.faults with probability = 0.0; alloc_probability = 0.0 };
      })
  @@ fun () ->
  let a = Bufpool.owner "a" and b = Bufpool.owner "b" in
  Bufpool.write a 0;
  (* the first task's draws: its page-in, then the writeback of a0 *)
  Nra.Fault.arm_fault ~at:(Nra.Fault.draws () + 2);
  let sch = Scheduler.create ~quantum_ms:infinity () in
  (* the first evicts a0 (and sleeps in its writeback), the second
     reads b0 *)
  ignore (Scheduler.spawn sch (fun () -> Bufpool.read a 1));
  ignore (Scheduler.spawn sch (fun () -> Bufpool.read b 0));
  Scheduler.run_until_idle sch;
  Alcotest.(check int) "the writeback slept" 1
    (Scheduler.stats sch).Scheduler.sleeps;
  Alcotest.(check bool) "the other task's page stays" true
    (Bufpool.resident b 0);
  Alcotest.(check bool) "a0 evicted" false (Bufpool.resident a 0);
  Alcotest.(check bool) "a1 evicted" false (Bufpool.resident a 1);
  Alcotest.(check int) "a0 written back once" 1
    (Bufpool.stats ()).Bufpool.writebacks;
  Bufpool.read b 0;
  Alcotest.(check int) "b0 is a hit" 1 (Bufpool.stats ()).Bufpool.hits

let () =
  Alcotest.run "scheduler"
    [
      ( "equivalence",
        [
          Alcotest.test_case "randomized interleavings match serial" `Quick
            test_interleaving_equivalence;
          Alcotest.test_case "Query 1-JA suspended mid-probe" `Quick
            test_mid_probe_interleaving;
        ] );
      ( "properties",
        [
          Alcotest.test_case "virtual clock is monotone" `Quick
            test_clock_monotone;
          Alcotest.test_case "no starvation under bursts" `Quick
            test_no_starvation;
          Alcotest.test_case "preemption within one quantum" `Quick
            test_preemption_within_quantum;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
          Alcotest.test_case "a checkpoint inside a task allocates nothing"
            `Quick test_tick_allocation;
          Alcotest.test_case "a slice allocates only what perform needs"
            `Quick test_slice_allocation;
          Alcotest.test_case "two prioritized tasks allocate as one"
            `Quick test_priority_allocation;
          Alcotest.test_case "an in-place boundary is exact" `Quick
            test_inplace_exact;
          Alcotest.test_case "a finite quantum cuts head-of-line blocking"
            `Quick test_head_of_line;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "retry backoff is virtual time" `Quick
            test_backoff_virtual;
          Alcotest.test_case "a pool charge that sleeps holds no frame"
            `Quick test_pool_charge_sleeps;
        ] );
    ]
