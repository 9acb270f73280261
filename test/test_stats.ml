(* The statistics subsystem: histograms, per-column statistics,
   statistics in the catalog entry, selectivity arithmetic, and the auto
   strategy's cost-based choice pinned at both ends of the Figure 4
   sweep. *)

open Nra
module I = Nra_storage.Iosim
module H = Stats.Histogram
module CS = Stats.Col_stats
module Card = Stats.Cardinality

(* auto's pinned choices are the choices over unrewritten plans;
   a CI-wide NRA_REWRITE run must not shift them *)
let () = Nra.set_rewrite_rules []

let vi i = Value.Int i
let approx = Alcotest.float 0.05

(* ---------- histograms ---------- *)

(* histograms are built by ANALYZE's per-column pass *)
let build vs = (CS.collect vs).CS.hist

let test_histogram_uniform () =
  let vs = Array.init 1_000 (fun i -> vi (i + 1)) in
  match build vs with
  | None -> Alcotest.fail "histogram over non-empty values"
  | Some h ->
      Alcotest.(check int) "buckets" 32 (H.buckets h);
      let bounds = H.bounds h in
      Alcotest.(check Test_support.value_testable)
        "minimum" (vi 1) bounds.(0);
      Alcotest.(check Test_support.value_testable)
        "maximum" (vi 1_000)
        bounds.(Array.length bounds - 1);
      Alcotest.check approx "below min" 0.0 (H.frac_below h (vi 0));
      Alcotest.check approx "at max" 1.0 (H.frac_below h (vi 1_000));
      Alcotest.check approx "median" 0.5 (H.frac_below h (vi 500));
      Alcotest.check approx "first quartile" 0.25 (H.frac_below h (vi 250));
      Alcotest.check approx "interquartile range" 0.5
        (H.frac_between h (vi 250) (vi 750))

let test_histogram_skewed () =
  (* 900 copies of 1 and the 100 values 101..200: equi-depth boundaries
     concentrate where the data does *)
  let vs =
    Array.init 1_000 (fun i -> if i < 900 then vi 1 else vi (i - 799))
  in
  match build vs with
  | None -> Alcotest.fail "histogram over non-empty values"
  | Some h ->
      Alcotest.check approx "mass at the spike" 0.9 (H.frac_below h (vi 1));
      Alcotest.check approx "tail midpoint" 0.95 (H.frac_below h (vi 150))

let test_histogram_degenerate () =
  Alcotest.(check bool) "all NULL" true (build [| Value.Null |] = None);
  Alcotest.(check bool) "empty" true (build [||] = None);
  match build [| vi 7; Value.Null; vi 7 |] with
  | None -> Alcotest.fail "constant column still has a histogram"
  | Some h ->
      Alcotest.check approx "everything at the constant" 1.0
        (H.frac_below h (vi 7))

(* ---------- per-column statistics ---------- *)

let test_col_stats_basics () =
  let vs =
    Array.init 1_000 (fun i ->
        if i mod 10 = 9 then Value.Null else vi (i mod 100))
  in
  let cs = CS.collect vs in
  Alcotest.(check int) "rows" 1_000 cs.CS.rows;
  Alcotest.(check int) "nulls" 100 cs.CS.nulls;
  (* the nullified positions (i ≡ 9 mod 10) are exactly the ones whose
     value would be ≡ 9 mod 10, so those 10 residues never occur *)
  Alcotest.(check int) "ndv" 90 cs.CS.ndv;
  Alcotest.check approx "null fraction" 0.1 (CS.null_frac cs);
  Alcotest.check approx "equality selectivity" 0.01 (CS.eq_sel cs)

let test_sel_cmp_matches_actual () =
  let vs = Array.init 1_000 (fun i -> vi (i + 1)) in
  let cs = CS.collect vs in
  let actual p = float_of_int (Array.length (Array.of_list (List.filter p (Array.to_list vs)))) /. 1_000. in
  let t_of op v = fst (CS.sel_cmp cs op (vi v)) in
  Alcotest.check approx "x <= 300" (actual (fun x -> x <= vi 300))
    (t_of Three_valued.Le 300);
  Alcotest.check approx "x > 800" (actual (fun x -> x > vi 800))
    (t_of Three_valued.Gt 800);
  Alcotest.check approx "x = 42" 0.001 (t_of Three_valued.Eq 42);
  (* comparisons against NULL are never true, always unknown *)
  Alcotest.(check (pair approx approx))
    "x = NULL" (0.0, 1.0)
    (CS.sel_cmp cs Three_valued.Eq Value.Null)

let test_pages_per_value_clustering () =
  let rpp = (I.config ()).I.rows_per_page in
  let n = rpp * 10 in
  (* clustered: each of the 10 values fills exactly one page *)
  let clustered = Array.init n (fun i -> vi (i / rpp)) in
  (* scattered: each of the 10 values appears on every page *)
  let scattered = Array.init n (fun i -> vi (i mod 10)) in
  let c = CS.collect clustered and s = CS.collect scattered in
  Alcotest.check approx "clustered ppv" 1.0 c.CS.pages_per_value;
  Alcotest.check approx "scattered ppv" 10.0 s.CS.pages_per_value

(* The typed grouping pass against the boxed reference collector,
   over the column shapes that stress it: empty, all-NULL and
   NULL-heavy columns, heavy duplicates, ints beyond 2^53, dates,
   floats with both zeros, NaN and infinities, strings with "" and
   shared prefixes, bools, and mixed Int/Float.  Mixed columns keep
   their ints below 2^53, where [Value.equal] is transitive.  Above it
   two distinct ints can both equal the float they round to, so a
   grouping depends on row order and no collector is a reference.
   On a typed column every field must agree structurally.  On a mixed
   column a boundary or min/max may be either of two equal values
   (the reference's sort is not stable), so values there agree under
   [Value.compare]. *)

module Ref = Test_support.Reference_stats

let big = 1 lsl 53

let cell_gen kind =
  let open QCheck.Gen in
  match kind with
  | `Int ->
      map vi
        (frequency
           [
             (4, int_range (-4) 4);
             ( 1,
               oneofl
                 [
                   max_int; min_int; big; big + 1; big - 1; -big; -big - 1;
                   (big * 4) + 3; (big * 4) + 4;
                 ] );
             (1, int);
           ])
  | `Date -> map (fun d -> Value.Date d) (int_range 9_000 9_020)
  | `Float ->
      map
        (fun f -> Value.Float f)
        (frequency
           [
             ( 2,
               oneofl
                 [ 0.0; -0.0; Float.nan; infinity; neg_infinity; 1e300; -1.5 ]
             );
             (3, map (fun i -> float_of_int i /. 4.0) (int_range (-8) 8));
           ])
  | `String ->
      map
        (fun s -> Value.String s)
        (frequency
           [
             (2, oneofl [ ""; "a"; "ab"; "abc"; "abd"; "abcd"; "b"; "ba" ]);
             (1, string_size ~gen:(char_range 'a' 'c') (int_range 0 4));
           ])
  | `Bool -> map (fun b -> Value.Bool b) bool
  | `Mixed ->
      oneof
        [
          map vi (int_range (-3) 3);
          map
            (fun f -> Value.Float f)
            (oneofl [ 0.0; -0.0; 1.0; 2.0; 1.5; -3.0; Float.nan; infinity ]);
        ]

type case = {
  kind : string;
  rpp : int;
  buckets : int;
  values : Value.t array;
}

let case_gen =
  let open QCheck.Gen in
  let* kind, name =
    oneofl
      [
        (`Int, "int"); (`Date, "date"); (`Float, "float");
        (`String, "string"); (`Bool, "bool"); (`Mixed, "mixed");
      ]
  in
  let* null_rate = oneofl [ 0.0; 0.0; 0.1; 0.8; 1.0 ] in
  let* n = frequency [ (1, return 0); (8, int_range 1 250) ] in
  let* values =
    array_repeat n
      (let* p = float_bound_exclusive 1.0 in
       if p < null_rate then return Value.Null else cell_gen kind)
  in
  let* rpp = oneofl [ 1; 2; 7; I.default_config.I.rows_per_page ] in
  let+ buckets = oneofl [ 1; 2; 32; n + 5 ] in
  { kind = name; rpp; buckets; values }

let print_case c =
  Printf.sprintf "%s column, %d rows/page, %d buckets: [%s]" c.kind c.rpp
    c.buckets
    (String.concat "; " (Array.to_list (Array.map Value.to_string c.values)))

let same_stats ~mixed (cs : CS.t) (r : Ref.t) =
  let value a b = if mixed then Value.compare a b = 0 else compare a b = 0 in
  let opt a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> value a b
    | _ -> false
  in
  cs.CS.rows = r.Ref.rows && cs.CS.nulls = r.Ref.nulls
  && cs.CS.ndv = r.Ref.ndv
  && Float.equal cs.CS.pages_per_value r.Ref.pages_per_value
  && opt cs.CS.min_v r.Ref.min_v
  && opt cs.CS.max_v r.Ref.max_v
  &&
  match (Option.map H.bounds cs.CS.hist, r.Ref.bounds) with
  | None, None -> true
  | Some a, Some b -> Array.length a = Array.length b && Array.for_all2 value a b
  | _ -> false

let prop_matches_reference =
  QCheck.Test.make ~count:600 ~name:"matches the reference collector"
    (QCheck.make ~print:print_case case_gen)
    (fun c ->
      Test_support.with_config (fun cfg ->
          { cfg with iosim = { cfg.iosim with I.rows_per_page = c.rpp } })
      @@ fun () ->
      let mixed =
        match fst (Batch.column_of_values c.values) with
        | Batch.Boxed _ -> true
        | _ -> false
      in
      same_stats ~mixed
        (CS.collect ~buckets:c.buckets c.values)
        (Ref.collect ~buckets:c.buckets ~rows_per_page:c.rpp c.values))

(* ---------- 3VL selectivity algebra ---------- *)

let test_three_valued_algebra () =
  let check name (et, eu) (s : Card.sel) =
    Alcotest.check approx (name ^ " true") et s.Card.t;
    Alcotest.check approx (name ^ " unknown") eu s.Card.u
  in
  let sel t u = { Card.t; u } in
  check "and of certainties" (0.25, 0.0)
    (Card.and3 (sel 0.5 0.0) (sel 0.5 0.0));
  check "or of certainties" (0.75, 0.0) (Card.or3 (sel 0.5 0.0) (sel 0.5 0.0));
  (* x AND x with unknowns: truth tables aggregated independently *)
  check "and with unknowns" (0.25, 0.29)
    (Card.and3 (sel 0.5 0.2) (sel 0.5 0.2));
  check "not keeps unknown" (0.3, 0.2) (Card.not3 (sel 0.5 0.2));
  check "double negation" (0.5, 0.2) (Card.not3 (Card.not3 (sel 0.5 0.2)))

(* ---------- ANALYZE, the store, and staleness ---------- *)

let test_analyze_command () =
  let cat = Test_support.emp_dept_catalog () in
  (match Nra.exec cat "analyze emp" with
  | Ok (Done m) -> Alcotest.(check string) "ack" "analyzed emp" m
  | Ok _ -> Alcotest.fail "expected Done"
  | Error m -> Alcotest.fail m);
  (match Nra.exec cat "analyze" with
  | Ok (Done m) -> Alcotest.(check string) "ack all" "analyzed 3 table(s)" m
  | Ok _ -> Alcotest.fail "expected Done"
  | Error m -> Alcotest.fail m);
  (match Nra.exec cat "analyze nosuch" with
  | Error m ->
      Alcotest.(check bool) "names the table" true
        (String.length m > 0 && String.sub m 0 7 = "unknown")
  | Ok _ -> Alcotest.fail "ANALYZE of a missing table must fail");
  match Catalog.stats cat "emp" with
  | None -> Alcotest.fail "statistics absent after ANALYZE"
  | Some ts ->
      Alcotest.(check int) "row count" 6 ts.Stats.Table_stats.rows;
      (match Stats.Table_stats.col ts "salary" with
      | None -> Alcotest.fail "no salary stats"
      | Some cs ->
          Alcotest.(check int) "salary ndv" 5 cs.CS.ndv;
          Alcotest.(check int) "salary nulls" 1 cs.CS.nulls)

let test_staleness () =
  let cat = Test_support.emp_dept_catalog () in
  (match Nra.exec cat "analyze emp" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "fresh after ANALYZE" true
    (Catalog.stats cat "emp" <> None);
  (match
     Nra.exec cat "insert into emp values (7, 'gil', 1, 55, null)"
   with
  | Ok (Count 1) -> ()
  | Ok _ | Error _ -> Alcotest.fail "insert failed");
  Alcotest.(check bool) "stale after the table changed" true
    (Catalog.stats cat "emp" = None);
  (match Nra.exec cat "analyze emp" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  match Catalog.stats cat "emp" with
  | None -> Alcotest.fail "re-ANALYZE did not refresh"
  | Some ts -> Alcotest.(check int) "new row count" 7 ts.Stats.Table_stats.rows

let test_drop_recreate () =
  let cat = Catalog.create () in
  let ok sql =
    match Nra.exec cat sql with Ok _ -> () | Error m -> Alcotest.fail m
  in
  ok "create table t (a int, primary key (a))";
  ok "insert into t values (1), (2), (3)";
  ok "analyze t";
  Alcotest.(check bool) "analyzed" true (Catalog.stats cat "t" <> None);
  ok "drop table t";
  ok "create table t (a int, primary key (a))";
  ok "insert into t values (1)";
  (* the per-table generation restarts after a drop and catches up with
     the dropped table's: the old snapshot must still be gone *)
  Alcotest.(check bool) "no statistics for the new table" true
    (Catalog.stats cat "t" = None)

(* [ndv] counts values under the engine's equality: Int 1 and
   Float 1.0 are one value to SELECT DISTINCT, so they are one to
   ANALYZE too, and equality selects half the rows, not a quarter. *)
let test_ndv_follows_equality () =
  let cat = Catalog.create () in
  let ok sql =
    match Nra.exec cat sql with Ok _ -> () | Error m -> Alcotest.fail m
  in
  ok "create table m (k int, x float, primary key (k))";
  ok "insert into m values (1, 1), (2, 1.0), (3, 2), (4, 2.0)";
  (match Nra.exec cat "select distinct x from m" with
  | Ok (Rows rel) ->
      Alcotest.(check int) "distinct values" 2 (Relation.cardinality rel)
  | Ok _ -> Alcotest.fail "expected rows"
  | Error m -> Alcotest.fail m);
  ok "analyze m";
  match Option.bind (Catalog.stats cat "m") (fun ts -> Stats.Table_stats.col ts "x") with
  | None -> Alcotest.fail "no statistics for m.x"
  | Some cs ->
      Alcotest.(check int) "ndv" 2 cs.CS.ndv;
      Alcotest.check approx "equality selectivity" 0.5 (CS.eq_sel cs)

(* One set-up as a benchmark makes it: a catalog, ANALYZE, a filtered
   SELECT.  Nothing of it may stay reachable once the caller lets go. *)
let setup_and_drop seed =
  let cat =
    Tpch.Gen.generate
      { Tpch.Gen.default with Tpch.Gen.scale = 0.01; seed = Int64.of_int seed }
  in
  (match Nra.exec cat "analyze" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  match
    Nra.exec cat "select l_orderkey from lineitem where l_quantity < 5"
  with
  | Ok (Rows rel) ->
      Alcotest.(check bool) "the filter keeps rows" true
        (Relation.cardinality rel > 0)
  | Ok _ -> Alcotest.fail "expected rows"
  | Error m -> Alcotest.fail m

let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

let test_catalog_lifetime () =
  let baseline = live_bytes () in
  List.iter setup_and_drop [ 1; 2; 3 ];
  let grown = live_bytes () - baseline in
  if grown > 2 * 1024 * 1024 then
    Alcotest.failf "three dropped set-ups still hold %.1f MB"
      (float_of_int grown /. 1048576.0)

(* ---------- EXPLAIN COSTS ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_explain_costs () =
  let cat = Test_support.emp_dept_catalog () in
  let sql =
    "select dname from dept where exists (select * from emp where \
     emp.dept_id = dept.dept_id)"
  in
  (match Nra.explain_costs cat sql with
  | Error m -> Alcotest.fail m
  | Ok report ->
      Alcotest.(check bool) "lists every strategy" true
        (List.for_all (fun (n, _) -> contains report n)
           (List.filter (fun (n, _) -> n <> "hybrid" && n <> "auto")
              Nra.strategies));
      Alcotest.(check bool) "announces the choice" true
        (contains report "auto picks:");
      (* nothing ANALYZEd yet: the report must say so *)
      Alcotest.(check bool) "flags missing statistics" true
        (contains report "no fresh statistics"));
  (match Nra.exec cat "analyze" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (match Nra.explain_costs cat sql with
  | Error m -> Alcotest.fail m
  | Ok report ->
      Alcotest.(check bool) "no staleness note once analyzed" false
        (contains report "no fresh statistics"));
  match Nra.explain_costs cat "select nonsense from nowhere" with
  | Ok _ -> Alcotest.fail "explain_costs over a bad query must fail"
  | Error _ -> ()

(* ---------- the auto strategy on the Figure 4 sweep ---------- *)

let tpch_cat () =
  let cat =
    Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.01 }
  in
  Tpch.Gen.add_benchmark_indexes cat;
  (match Nra.exec cat "analyze" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  cat

let q1_at rows =
  let lo, hi = Tpch.Queries.q1_window ~outer_fraction:(rows /. 1_500_000.) in
  Tpch.Queries.q1 ~date_lo:lo ~date_hi:hi

let concrete =
  [ Nra.Naive; Classical; Magic; Nra_original; Nra_optimized; Nra_full ]

let sim cat strategy sql =
  ignore (Nra.query_exn ~strategy cat sql);
  I.reset ();
  ignore (Nra.query_exn ~strategy cat sql);
  I.simulated_seconds ()

let test_auto_choice_regression () =
  let cat = tpch_cat () in
  let choice sql =
    match Nra.auto_choice cat sql with
    | Ok s -> Nra.strategy_to_string s
    | Error m -> Alcotest.fail m
  in
  (* the crossover of Figure 4: indexed nested iteration wins while the
     outer block is tiny, the scan-based NRA wins past it *)
  Alcotest.(check string) "small outer end" "classical"
    (choice (q1_at 500.));
  Alcotest.(check string) "large outer end" "nra-full"
    (choice (q1_at 16_000.))

let test_auto_within_tolerance () =
  let cat = tpch_cat () in
  List.iter
    (fun rows ->
      let sql = q1_at rows in
      let best =
        List.fold_left
          (fun acc s -> Float.min acc (sim cat s sql))
          infinity concrete
      in
      let auto = sim cat Nra.Auto sql in
      if auto > (1.10 *. best) +. 1e-9 then
        Alcotest.fail
          (Printf.sprintf
             "auto sim %.4fs exceeds 1.1 x best %.4fs at outer=%.0f" auto
             best rows))
    [ 500.; 16_000. ]

(* ---------- the estimators price what executes ---------- *)

let analyze cat sql =
  match Planner.Analyze.analyze_string cat sql with
  | Ok t -> t
  | Error m -> Alcotest.fail m

(* Naive's estimated pages against the pages it charges.  Both queries
   probe per outer tuple: the first because its linked attribute reads
   the outer block (so the subquery is not evaluated once), the second
   through region's key index.  The estimate counts each probe's page
   misses without the LRU cache in front of row fetches, so the run
   goes without it too. *)
let test_naive_access_path () =
  let cat =
    Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.002 }
  in
  (match Nra.exec cat "analyze" with Ok _ -> () | Error m -> Alcotest.fail m);
  Test_support.with_config
    (fun c ->
      {
        c with
        frames = Off;
        faults = Fault.default_config;
        iosim = { c.iosim with I.cache_pages = 0 };
      })
    (fun () ->
      List.iter
        (fun sql ->
          let e = Stats.Cost.estimate cat (analyze cat sql) Stats.Cost.Naive in
          I.reset ();
          ignore (Nra.query_exn ~strategy:Nra.Naive cat sql);
          let c = I.counters () in
          let b = e.Stats.Cost.breakdown in
          Alcotest.(check (float 0.0)) ("seq pages: " ^ sql)
            (float_of_int c.I.seq_pages) b.Stats.Cost.seq_pages;
          Alcotest.(check (float 0.0)) ("random pages: " ^ sql)
            (float_of_int c.I.rand_pages) b.Stats.Cost.rand_pages)
        [
          "select n_name from nation where n_regionkey > all (select \
           nation.n_regionkey + r_regionkey from region)";
          "select n_name from nation where exists (select * from region \
           where r_regionkey = n_regionkey)";
        ])

(* Query 3-B with < ALL over a correlated EXISTS: the EXISTS site is a
   σ̄ site (its parent's link is not positive), so nra-full cannot turn
   it into a semijoin and reduces it bottom-up.  The estimate must price
   that plan — not one that skips its wide intermediate — so Auto's
   attempt budget holds and it never falls back. *)
let test_nra_full_prices_its_plan () =
  let cat = tpch_cat () in
  Fault.disable ();
  let sql =
    Tpch.Queries.q3 ~quant:Tpch.Queries.All ~exists:true
      ~variant:Tpch.Queries.B ~size_lo:1 ~size_hi:12 ~availqty_max:2000
      ~quantity:25
  in
  let t = analyze cat sql in
  (match Exec.Plan.find (Exec.Plan.lift ~base:Exec.Nra_exec.full t) 3 with
  | Some { Exec.Plan.impl = Exec.Plan.Bottom_up _; discard_ok = false; _ } ->
      ()
  | _ -> Alcotest.fail "block 3 should run bottom-up under σ̄");
  let fetched s =
    (Stats.Cost.estimate cat t s).Stats.Cost.breakdown.Stats.Cost.fetched_rows
  in
  Alcotest.(check bool) "nra-full fetches no fewer rows than nra-optimized"
    true
    (fetched Stats.Cost.Nra_full >= fetched Stats.Cost.Nra_optimized);
  let before = (Guard.events ()).Guard.auto_fallbacks in
  (match Nra.query ~strategy:Nra.Auto cat sql with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "no auto fallback" before
    (Guard.events ()).Guard.auto_fallbacks

(* ---------- budget-aware pick (Guard.remaining -> Cost.pick) ---------- *)

let test_budget_pick_flips () =
  let open Stats.Cost in
  let est strategy cost_ms fetched_rows =
    {
      strategy;
      cost_ms;
      breakdown = { seq_pages = 0.0; rand_pages = 0.0; fetched_rows };
    }
  in
  (* cheapest by I/O but intermediate-heavy, vs pricier but scan-shaped *)
  let heavy = est Nra_optimized 10.0 100_000.0 in
  let lean = est Classical 25.0 200.0 in
  let choice ?io ?rows () =
    (pick ~remaining_io_ms:io ~remaining_rows:rows [ heavy; lean ]).strategy
  in
  Alcotest.(check bool) "unlimited: globally cheapest" true
    (choice () = Nra_optimized);
  (* the row allowance shrinks below the heavy plan's intermediates:
     the choice flips to the lean plan even though it prices higher *)
  Alcotest.(check bool) "tight rows flips the choice" true
    (choice ~rows:10_000 () = Classical);
  (* shrinks below every plan: doomed either way, so take the cheapest
     path to the kill *)
  Alcotest.(check bool) "hopeless budget: cheapest again" true
    (choice ~rows:50 () = Nra_optimized);
  (* an I/O allowance the lean plan does not fit prunes it back out *)
  Alcotest.(check bool) "io prunes the lean plan" true
    (choice ~io:15.0 ~rows:10_000 () = Nra_optimized);
  (* end to end: auto_choice consults Guard.remaining () of an active
     budget and still resolves to a runnable strategy *)
  let cat = Test_support.emp_dept_catalog () in
  (match Nra.exec cat "analyze" with Ok _ -> () | Error m -> Alcotest.fail m);
  let sql = "select ename from emp where salary > 50" in
  Guard.with_budget (Guard.budget ~max_rows:5 ()) (fun () ->
      match Nra.auto_choice cat sql with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)

let () =
  Alcotest.run "stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "uniform" `Quick test_histogram_uniform;
          Alcotest.test_case "skewed" `Quick test_histogram_skewed;
          Alcotest.test_case "degenerate" `Quick test_histogram_degenerate;
        ] );
      ( "col_stats",
        [
          Alcotest.test_case "basics" `Quick test_col_stats_basics;
          Alcotest.test_case "selectivity matches data" `Quick
            test_sel_cmp_matches_actual;
          Alcotest.test_case "pages per value" `Quick
            test_pages_per_value_clustering;
          Alcotest.test_case "3VL algebra" `Quick test_three_valued_algebra;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "command" `Quick test_analyze_command;
          Alcotest.test_case "staleness" `Quick test_staleness;
          Alcotest.test_case "drop and recreate" `Quick test_drop_recreate;
          Alcotest.test_case "catalog lifetime" `Quick test_catalog_lifetime;
          Alcotest.test_case "ndv follows equality" `Quick
            test_ndv_follows_equality;
          Alcotest.test_case "explain costs" `Quick test_explain_costs;
        ] );
      ( "estimates",
        [
          Alcotest.test_case "naive access path" `Quick
            test_naive_access_path;
          Alcotest.test_case "nra-full prices its plan" `Quick
            test_nra_full_prices_its_plan;
        ] );
      ( "auto",
        [
          Alcotest.test_case "figure 4 choices pinned" `Slow
            test_auto_choice_regression;
          Alcotest.test_case "within 10% of the best" `Slow
            test_auto_within_tolerance;
          Alcotest.test_case "budget-aware pick flips" `Quick
            test_budget_pick_flips;
        ] );
    ]
