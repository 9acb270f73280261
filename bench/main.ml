(* Benchmark harness: regenerates every table and figure of the paper's
   Section 5 (Figures 4–9 plus the in-text nest/linking-selection cost
   table, reported here as "Figure 10"), the Section 4.2 ablations, and
   Bechamel microbenchmarks of the core physical operators.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --figure 6   # one figure
     dune exec bench/main.exe -- --scale 0.02 --no-micro --no-ablation
     dune exec bench/main.exe -- --domains-sweep --scale 0.02
                                              # parallel-kernel speedups
                                              # only, to BENCH_parallel.json

   Two costs are reported per run:
   - cpu(s): measured wall-clock of the in-memory OCaml engine;
   - sim(s): the simulated 2005-disk elapsed time of Iosim (sequential
     scans, random index I/O, per-tuple engine→procedure fetch), which
     is the regime the paper's absolute numbers live in.  Figure shapes
     (who wins, crossovers) are asserted on sim(s); see EXPERIMENTS.md. *)

module Iosim = Nra_storage.Iosim
module Q = Nra.Tpch.Queries
module Nx = Nra.Exec.Nra_exec

(* ---------- configuration ---------- *)

let scale = ref 0.05
let selected_figures : int list ref = ref []
let run_micro = ref true
let run_ablation = ref true
let run_full = ref false
let run_domains_sweep = ref false
let run_outofcore_sweep = ref false
let run_rewrite_sweep = ref false
let run_columnar_sweep = ref false

let usage () =
  prerr_endline
    "usage: main.exe [--figure N]... [--scale S] [--full] [--no-micro] \
     [--no-ablation] [--domains-sweep] [--outofcore-sweep] \
     [--rewrite-sweep] [--columnar-sweep]";
  exit 2

let () =
  let rec parse = function
    | [] -> ()
    | "--figure" :: n :: rest ->
        (match int_of_string_opt n with
        | Some i -> selected_figures := i :: !selected_figures
        | None -> usage ());
        parse rest
    | "--scale" :: s :: rest ->
        (match float_of_string_opt s with
        | Some f when f > 0.0 -> scale := f
        | _ -> usage ());
        parse rest
    | "--full" :: rest ->
        run_full := true;
        parse rest
    | "--no-micro" :: rest ->
        run_micro := false;
        parse rest
    | "--no-ablation" :: rest ->
        run_ablation := false;
        parse rest
    | "--domains-sweep" :: rest ->
        run_domains_sweep := true;
        parse rest
    | "--outofcore-sweep" :: rest ->
        run_outofcore_sweep := true;
        parse rest
    | "--rewrite-sweep" :: rest ->
        run_rewrite_sweep := true;
        parse rest
    | "--columnar-sweep" :: rest ->
        run_columnar_sweep := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv))

let wanted fig =
  !selected_figures = [] || List.mem fig !selected_figures

(* ---------- measurement ---------- *)

type cost = { cpu : float; sim : float; rows : int }

let measure f =
  (* one warm-up to populate minor-heap/caches, then the timed run *)
  ignore (f ());
  Iosim.reset ();
  let t0 = Unix.gettimeofday () in
  let rel = f () in
  let cpu = Unix.gettimeofday () -. t0 in
  { cpu; sim = Iosim.simulated_seconds (); rows = Nra.Relation.cardinality rel }

let run_strategy cat strategy sql =
  measure (fun () -> Nra.query_exn ~strategy cat sql)

let strategies () =
  [ ("native", Nra.Classical); ("nra-orig", Nra.Nra_original);
    ("nra-opt", Nra.Nra_optimized) ]
  @ (if !run_full then
       [ ("nra-full", Nra.Nra_full); ("hybrid", Nra.Hybrid) ]
     else [])
  @ [ ("auto", Nra.Auto) ]

let header title detail =
  Printf.printf "\n== %s ==\n   %s\n" title detail

let print_series_header () =
  Printf.printf "%-26s %8s" "size (outer block rows)" "|result|";
  List.iter
    (fun (name, _) -> Printf.printf " | %-9s %9s" (name ^ " cpu") "sim(s)")
    (strategies ());
  print_newline ()

let print_series_row label result_rows costs =
  Printf.printf "%-26s %8d" label result_rows;
  List.iter (fun c -> Printf.printf " | %9.3f %9.2f" c.cpu c.sim) costs;
  print_newline ()

let outer_block_size cat sql =
  (* size of the outermost block after its local selections — the
     paper's X axis *)
  match Nra.Planner.Analyze.analyze_string cat sql with
  | Error m -> failwith m
  | Ok t ->
      Iosim.reset ();
      let rel = Nra.Exec.Frame.block_relation t.Nra.Planner.Analyze.root in
      Nra.Relation.cardinality rel

(* machine-readable record of every sweep point, dumped as
   BENCH_subqueries.json at the end of the run *)
type point = {
  fig : string;
  outer : int;
  result_rows : int;
  auto_pick : string;
  runs : (string * cost) list;
}

let points : point list ref = ref []

(* one rewrite-on/off comparison per (query, strategy): [fired] is
   whether the cost gate actually rewrote the plan the strategy ran
   (for auto, the plan of its pick), and [pick_*] record auto's choice
   under each configuration *)
type rw_run = {
  rw_name : string;
  fired : bool;
  pick_off : string;
  pick_on : string;
  off : cost;
  on : cost;
}

type rw_point = { rwp_fig : string; rwp_outer : int; rwp_runs : rw_run list }

let rewrite_points : rw_point list ref = ref []

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let emit_json path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"scale\": %g,\n  \"points\": [\n" !scale);
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"figure\": %s, \"outer\": %d, \"result_rows\": %d, \
            \"auto_pick\": %s, \"strategies\": ["
           (json_string p.fig) p.outer p.result_rows
           (json_string p.auto_pick));
      List.iteri
        (fun j (name, c) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf "{\"name\": %s, \"cpu_s\": %.6f, \"sim_s\": %.4f}"
               (json_string name) c.cpu c.sim))
        p.runs;
      Buffer.add_string buf "]}")
    (List.rev !points);
  Buffer.add_string buf "\n  ]";
  if !rewrite_points <> [] then begin
    Buffer.add_string buf ",\n  \"rewrite_sweep\": [\n";
    List.iteri
      (fun i p ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf "    {\"figure\": %s, \"outer\": %d, \
                           \"strategies\": ["
             (json_string p.rwp_fig) p.rwp_outer);
        List.iteri
          (fun j r ->
            if j > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf
              (Printf.sprintf
                 "{\"name\": %s, \"rewrite_fired\": %b, \"pick_off\": %s, \
                  \"pick_on\": %s, \"off_cpu_s\": %.6f, \"off_sim_s\": \
                  %.4f, \"on_cpu_s\": %.6f, \"on_sim_s\": %.4f, \
                  \"improved\": %b}"
                 (json_string r.rw_name) r.fired (json_string r.pick_off)
                 (json_string r.pick_on) r.off.cpu r.off.sim r.on.cpu
                 r.on.sim
                 (r.on.sim < r.off.sim)))
          p.rwp_runs;
        Buffer.add_string buf "]}")
      (List.rev !rewrite_points);
    Buffer.add_string buf "\n  ]"
  end;
  Buffer.add_string buf "\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %s (%d points, %d rewrite points)\n" path
    (List.length !points)
    (List.length !rewrite_points)

let sweep ~fig cat sqls =
  print_series_header ();
  List.iter
    (fun sql ->
      let costs =
        List.map (fun (n, s) -> (n, run_strategy cat s sql)) (strategies ())
      in
      let outer = outer_block_size cat sql in
      let auto_pick =
        match Nra.auto_choice cat sql with
        | Ok s -> Nra.strategy_to_string s
        | Error m -> "error: " ^ m
      in
      let result_rows = (snd (List.hd costs)).rows in
      points :=
        { fig; outer; result_rows; auto_pick; runs = costs } :: !points;
      print_series_row (string_of_int outer) result_rows (List.map snd costs))
    sqls

(* ---------- the data ---------- *)

let cat =
  let cfg = { Nra.Tpch.Gen.default with Nra.Tpch.Gen.scale = !scale } in
  Printf.printf "generating TPC-H data at scale %.3f (seed %Ld)...\n%!" !scale
    cfg.Nra.Tpch.Gen.seed;
  let t0 = Unix.gettimeofday () in
  let cat = Nra.Tpch.Gen.generate cfg in
  Nra.Tpch.Gen.add_benchmark_indexes cat;
  Printf.printf "done in %.1fs:" (Unix.gettimeofday () -. t0);
  List.iter
    (fun t ->
      Printf.printf " %s=%d" (Nra.Table.name t) (Nra.Table.cardinality t))
    (Nra.Catalog.tables cat);
  print_newline ();
  let c = Iosim.config () in
  Printf.printf
    "I/O model: %d rows/page, seq %.2fms, rand %.2fms, fetch %.3fms/tuple\n"
    c.Iosim.rows_per_page c.Iosim.t_seq_ms c.Iosim.t_rand_ms
    c.Iosim.t_fetch_ms;
  cat

(* statistics for the auto strategy; collection is pure CPU, so the
   simulated numbers below are unaffected *)
let () =
  match Nra.exec cat "analyze" with
  | Ok (Nra.Done m) -> Printf.printf "%s (for --strategy auto)\n" m
  | _ -> prerr_endline "warning: ANALYZE failed; auto will use defaults"

(* the paper's block sizes as fractions of the base tables, extended
   below the paper's smallest point so the auto strategy's crossover
   (native wins on tiny outer blocks, NRA past it) is visible *)
let q1_fractions = [ 500.; 1_500.; 4_000.; 8_000.; 12_000.; 16_000. ]
                   |> List.map (fun n -> n /. 1_500_000.)

let part_fractions = [ 12_000.; 24_000.; 36_000.; 48_000. ]
                     |> List.map (fun n -> n /. 200_000.)

let availqty_fraction = 16_000. /. 800_000.

let q1_sqls () =
  List.map
    (fun f ->
      let lo, hi = Q.q1_window ~outer_fraction:f in
      Q.q1 ~date_lo:lo ~date_hi:hi)
    q1_fractions

let q2_sqls quant =
  List.map
    (fun f ->
      let size_lo, size_hi = Q.size_window ~outer_fraction:f in
      Q.q2 ~quant ~size_lo ~size_hi
        ~availqty_max:(Q.availqty_bound ~fraction:availqty_fraction)
        ~quantity:25)
    part_fractions

let q3_sqls ~quant ~exists ~variant =
  List.map
    (fun f ->
      let size_lo, size_hi = Q.size_window ~outer_fraction:f in
      Q.q3 ~quant ~exists ~variant ~size_lo ~size_hi
        ~availqty_max:(Q.availqty_bound ~fraction:availqty_fraction)
        ~quantity:25)
    part_fractions

let variant_name = function Q.A -> "(a) =,=" | Q.B -> "(b) <>,=" | Q.C -> "(c) =,<>"

(* ---------- figures ---------- *)

let figure4 () =
  header "Figure 4: Query 1"
    "one-level ALL subquery over orders/lineitem; native = nested \
     iteration with the l_orderkey index (no NOT NULL on \
     l_extendedprice, so no antijoin)";
  sweep ~fig:"4" cat (q1_sqls ())

(* the JA sweep reuses Query 1's outer windows but links an aggregated
   subquery (MAX per order); fewer points than Figure 4 since there are
   four linking operators to cover *)
let ja_fractions = [ 500.; 4_000.; 16_000. ] |> List.map (fun n -> n /. 1_500_000.)

let q1_ja_sqls link =
  List.map
    (fun f ->
      let lo, hi = Q.q1_window ~outer_fraction:f in
      Q.q1_ja ~link ~date_lo:lo ~date_hi:hi)
    ja_fractions

let figure_ja () =
  List.iter
    (fun link ->
      let op = Q.ja_link_str link in
      header (Printf.sprintf "JA sweep: Query 1-JA  o_totalprice %s MAX(...)" op)
        "aggregate-linking (type JA) subquery: the value set is the \
         per-order MAX singleton; empty groups aggregate to NULL, so the \
         semijoin shortcut is off for every strategy";
      sweep ~fig:("JA " ^ op) cat (q1_ja_sqls link))
    [ Q.Ja_in; Q.Ja_not_in; Q.Ja_gt_all; Q.Ja_scalar_eq ]

let figure5 () =
  header "Figure 5: Query 2a (mixed ANY / NOT EXISTS)"
    "linear two-level; native = semijoin over antijoin, bottom-up";
  sweep ~fig:"5" cat (q2_sqls Q.Any)

let figure6 () =
  header "Figure 6: Query 2b (negative ALL / NOT EXISTS)"
    "same query with ALL: the native approach must fall back to nested \
     iteration (ps_supplycost is nullable)";
  sweep ~fig:"6" cat (q2_sqls Q.All)

let figure789 fig name ~quant ~exists =
  List.iter
    (fun variant ->
      header
        (Printf.sprintf "Figure %d%s: Query %s %s" fig
           (match variant with Q.A -> "(a)" | Q.B -> "(b)" | Q.C -> "(c)")
           name (variant_name variant))
        "tree-correlated two-level (innermost block references both \
         enclosing blocks); native = nested iteration with indexes";
      sweep
        ~fig:
          (Printf.sprintf "%d%s" fig
             (match variant with Q.A -> "a" | Q.B -> "b" | Q.C -> "c"))
        cat
        (q3_sqls ~quant ~exists ~variant))
    [ Q.A; Q.B; Q.C ]

let figure10 () =
  header "Figure 10 (in-text table): nest + linking-selection cost"
    "processing time of the nested relational operators alone, original \
     (materialized nest, two passes) vs optimized (pipelined, one pass). \
     The sweep uses absolute intermediate sizes comparable to the \
     paper's 40K–165K tuples, so the CPU numbers are directly \
     interpretable";
  Printf.printf "%-12s %14s %16s %16s\n" "outer rows" "intermediate"
    "original(s)" "optimized(s)";
  List.iter
    (fun f ->
      let lo, hi = Q.q1_window ~outer_fraction:f in
      let sql = Q.q1 ~date_lo:lo ~date_hi:hi in
      match Nra.Planner.Analyze.analyze_string cat sql with
      | Error m -> failwith m
      | Ok t ->
          (* median of 3 runs: the quantity is pure CPU and small *)
          let median options =
            let xs =
              List.init 3 (fun _ ->
                  let _, st = Nx.run_where ~options cat t in
                  st.Nx.nest_select_seconds)
            in
            List.nth (List.sort compare xs) 1
          in
          let _, st = Nx.run_where ~options:Nx.original cat t in
          Printf.printf "%-12d %14d %16.4f %16.4f\n"
            (outer_block_size cat sql)
            st.Nx.total_intermediate_rows (median Nx.original)
            (median Nx.optimized))
    [ 0.25; 0.5; 0.75; 1.0 ]

(* ---------- ablations (§4.2) ---------- *)

let ablation_run name options sql =
  match Nra.Planner.Analyze.analyze_string cat sql with
  | Error m -> failwith m
  | Ok t ->
      ignore (Nx.run ~options cat t);
      Iosim.reset ();
      let t0 = Unix.gettimeofday () in
      let rel, st = Nx.run_where ~options cat t in
      let cpu = Unix.gettimeofday () -. t0 in
      Printf.printf "  %-34s cpu %7.3fs  sim %8.2fs  peak-interm %8d  (%d rows)\n"
        name cpu
        (Iosim.simulated_seconds ())
        st.Nx.peak_intermediate_rows
        (Nra.Relation.cardinality rel)

let ablations () =
  header "Ablations" "each §4.2 optimization toggled in isolation";
  let q1 = List.nth (q1_sqls ()) 3 in
  let q2b = List.nth (q2_sqls Q.All) 3 in
  let q3c = List.nth (q3_sqls ~quant:Q.Any ~exists:true ~variant:Q.A) 3 in
  Printf.printf "\n[pipelining — §4.2.1/4.2.2, on Query 1]\n";
  ablation_run "original (two passes)" Nx.original q1;
  ablation_run "pipelined" Nx.optimized q1;
  Printf.printf "\n[bottom-up linear evaluation — §4.2.3, on Query 2b]\n";
  ablation_run "top-down" Nx.optimized q2b;
  ablation_run "bottom-up"
    { Nx.optimized with Nx.bottom_up_linear = true }
    q2b;
  Printf.printf "\n[nest push-down — §4.2.4, on Query 1]\n";
  ablation_run "outer join + nest" Nx.optimized q1;
  ablation_run "push-down (group once, probe)"
    { Nx.optimized with Nx.push_down_nest = true }
    q1;
  Printf.printf "\n[positive simplification — §4.2.5, on Query 3c(a)]\n";
  ablation_run "outer join + nest" Nx.optimized q3c;
  ablation_run "semijoin rewrite"
    { Nx.optimized with Nx.positive_simplify = true; push_down_nest = true }
    q3c;
  (* the buffer cache the paper's environment had 3% of: nested
     iteration recovers as the cache approaches the database size,
     while the scan-based NRA is indifferent *)
  Printf.printf
    "\n[buffer cache size vs nested iteration, on Query 1 (largest sweep \
     point)]\n";
  let saved = Iosim.config () in
  List.iter
    (fun cache_pages ->
      Iosim.set_config { saved with Iosim.cache_pages };
      Iosim.reset ();
      let rel = Nra.query_exn ~strategy:Nra.Naive cat q1 in
      Printf.printf
        "  cache %6d pages: naive sim %7.2fs  (hits %d / misses %d, %d rows)\n"
        cache_pages
        (Iosim.simulated_seconds ())
        (Iosim.cache_hits ()) (Iosim.cache_misses ())
        (Nra.Relation.cardinality rel))
    [ 0; 40; 160; 640; 2560; 10240 ];
  Iosim.set_config saved

(* ---------- guard overhead and Auto degradation ---------- *)

let robustness () =
  header "Robustness (pseudo-figure 11): guard overhead, kill-and-fallback"
    "cost of the cooperative tick checkpoints, and of Auto's \
     kill-the-attempt-and-rerun discipline when the budget is pinned to \
     the bare estimate (overrun 1.0: every optimistic estimate degrades)";
  let q1 = List.nth (q1_sqls ()) 3 in
  let direct = run_strategy cat Nra.Nra_optimized q1 in
  let guarded =
    measure (fun () ->
        let guard =
          (* effectively-infinite limits: pure checkpoint overhead *)
          Nra.Guard.budget ~wall_ms:1e12 ~sim_io_ms:1e12
            ~max_rows:max_int ()
        in
        match Nra.query ~strategy:Nra.Nra_optimized ~guard cat q1 with
        | Ok rel -> rel
        | Error m -> failwith m)
  in
  Printf.printf
    "  nra-opt, Query 1 (largest sweep point): unguarded cpu %.3fs, \
     guarded cpu %.3fs, sim %.2fs either way\n"
    direct.cpu guarded.cpu guarded.sim;
  let overrun, floor_ms = Nra.auto_guard () in
  let sqls = q1_sqls () @ q2_sqls Q.Any @ q2_sqls Q.All in
  let sweep_auto label =
    Nra.Guard.reset_events ();
    Iosim.reset ();
    let t0 = Unix.gettimeofday () in
    let sim =
      List.fold_left
        (fun acc sql ->
          Iosim.reset ();
          ignore (Nra.query_exn ~strategy:Nra.Auto cat sql);
          acc +. Iosim.simulated_seconds ())
        0.0 sqls
    in
    let cpu = Unix.gettimeofday () -. t0 in
    let ev = Nra.Guard.events () in
    Printf.printf
      "  auto, %d queries, %s: %d fallback(s), cpu %.3fs, sim %.2fs\n"
      (List.length sqls) label ev.Nra.Guard.auto_fallbacks cpu sim
  in
  sweep_auto
    (Printf.sprintf "default overrun x%.1f floor %.1fms" overrun floor_ms);
  Nra.set_auto_guard ~overrun:1.0 ~floor_ms:0.0 ();
  sweep_auto "overrun x1.0 floor 0ms";
  Nra.set_auto_guard ~overrun ~floor_ms ();
  Nra.Guard.reset_events ()

(* ---------- Bechamel microbenchmarks ---------- *)

let micro () =
  header "Microbenchmarks (Bechamel)"
    "per-operation cost of the physical operators on fixed inputs";
  let open Bechamel in
  let open Nra in
  let lineitem = Table.relation (Catalog.table cat "lineitem") in
  let orders = Table.relation (Catalog.table cat "orders") in
  let sample n rel =
    Relation.make (Relation.schema rel)
      (Array.sub (Relation.rows rel) 0 (min n (Relation.cardinality rel)))
  in
  let li = sample 20_000 lineitem in
  let ords = sample 5_000 orders in
  let li_schema = Relation.schema li in
  let o_schema = Relation.schema ords in
  let okey = Schema.find o_schema ~table:"orders" "o_orderkey" in
  let lkey = Schema.find li_schema ~table:"lineitem" "l_orderkey" in
  let join_on =
    Expr.Cmp
      (Three_valued.Eq, Expr.Col okey,
       Expr.Col (Schema.arity o_schema + lkey))
  in
  let wide = Algebra.Join.join Algebra.Join.Left_outer ~on:join_on ords li in
  let by = Array.init (Schema.arity o_schema) Fun.id in
  let keep =
    [| Schema.arity o_schema + lkey; Schema.arity o_schema + lkey |]
  in
  let grouped = Nested.Grouped.nest_sort ~by ~keep wide in
  let pred =
    Nested.Link_pred.Quant
      (Expr.Col
         (Schema.find o_schema ~table:"orders" "o_totalprice"),
       Three_valued.Gt, Nested.Link_pred.All, 0)
  in
  let tests =
    Test.make_grouped ~name:"operators"
      [
        Test.make ~name:"hash-join(5k x 20k)"
          (Staged.stage (fun () ->
               Algebra.Join.join Algebra.Join.Inner ~on:join_on ords li));
        Test.make ~name:"left-outer-join(5k x 20k)"
          (Staged.stage (fun () ->
               Algebra.Join.join Algebra.Join.Left_outer ~on:join_on ords li));
        Test.make ~name:"nest-sort"
          (Staged.stage (fun () -> Nested.Grouped.nest_sort ~by ~keep wide));
        Test.make ~name:"nest-hash"
          (Staged.stage (fun () -> Nested.Grouped.nest_hash ~by ~keep wide));
        Test.make ~name:"linking-selection"
          (Staged.stage (fun () ->
               Nested.Grouped.select pred ~marker:(Some 1) grouped));
        Test.make ~name:"pseudo-selection"
          (Staged.stage (fun () ->
               Nested.Grouped.pseudo_select pred ~marker:(Some 1)
                 ~pad:[| 0 |] grouped));
        Test.make ~name:"sort(20k)"
          (Staged.stage (fun () -> Relation.sort_by [| lkey |] li));
        Test.make ~name:"semijoin(5k x 20k)"
          (Staged.stage (fun () ->
               Algebra.Join.join Algebra.Join.Semi ~on:join_on ords li));
      ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      let v = Hashtbl.find results name in
      match Analyze.OLS.estimates v with
      | Some (t :: _) -> Printf.printf "  %-34s %10.3f ms/run\n" name (t /. 1e6)
      | _ -> Printf.printf "  %-34s (no estimate)\n" name)
    (List.sort compare names)

(* ---------- BENCH_parallel.json ----------

   Two sweeps share the file: the domains sweep (parallel-kernel
   speedup curve) and the columnar sweep (row vs columnar kernel
   timings at domains=0).  Each records its section; whichever sweeps
   ran are emitted together. *)

let domains_section : string option ref = ref None
let columnar_section : string option ref = ref None

let write_bench_parallel () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"scale\": %g,\n  \"host_cores\": %d" !scale
       (Domain.recommended_domain_count ()));
  (match !domains_section with
  | Some s -> Buffer.add_string buf (",\n  \"domains_sweep\": " ^ s)
  | None -> ());
  (match !columnar_section with
  | Some s -> Buffer.add_string buf (",\n  \"columnar_sweep\": " ^ s)
  | None -> ());
  Buffer.add_string buf "\n}\n";
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_parallel.json\n"

(* ---------- domains sweep ----------

   The three parallel kernels (partitioned hash join, parallel nest,
   morsel filter) timed at pool sizes 0/1/2/4 against the serial
   baseline, with a bit-identity check per point; results land in
   BENCH_parallel.json.  The host core count goes into the JSON too:
   wall-clock speedup is bounded by the physical cores, not the domain
   count, so single-core CI still produces an honest (flat) curve. *)

let domains_sweep () =
  let open Nra in
  header "Domains sweep"
    "parallel kernels vs the serial baseline (bit-identity checked)";
  let lineitem = Table.relation (Catalog.table cat "lineitem") in
  let orders = Table.relation (Catalog.table cat "orders") in
  let li_schema = Relation.schema lineitem in
  let o_schema = Relation.schema orders in
  let okey = Schema.find o_schema ~table:"orders" "o_orderkey" in
  let lkey = Schema.find li_schema ~table:"lineitem" "l_orderkey" in
  let join_on =
    Expr.Cmp
      ( Three_valued.Eq,
        Expr.Col okey,
        Expr.Col (Schema.arity o_schema + lkey) )
  in
  let by = Array.init (Schema.arity o_schema) Fun.id in
  let keep =
    [| Schema.arity o_schema + lkey; Schema.arity o_schema + lkey |]
  in
  let filter_on =
    Expr.Cmp (Three_valued.Gt, Expr.Col lkey, Expr.Const (Value.Int 100))
  in
  let join () = Algebra.Join.join Algebra.Join.Inner ~on:join_on orders lineitem in
  let wide = join () in
  let nest () = Nested.Grouped.nest_hash ~by ~keep wide in
  let filter () = Algebra.Basic.select filter_on lineitem in
  (* best-of-3 after a warm-up: the kernels are sub-second at these
     scales and we want the speedup curve, not allocator noise *)
  let time f =
    ignore (f ());
    let best = ref infinity in
    let result = ref (f ()) in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := r
    done;
    (!best, !result)
  in
  Printf.printf "%8s | %10s %10s %10s | identical\n" "domains" "join(s)"
    "nest(s)" "filter(s)";
  let baseline = ref None in
  let points =
    List.map
      (fun d ->
        Pool.set_size d;
        let tj, rj = time join in
        let tn, rn = time nest in
        let tf, rf = time filter in
        let identical =
          match !baseline with
          | None ->
              baseline := Some (rj, rn, rf);
              true
          | Some (bj, bn, bf) ->
              Relation.rows bj = Relation.rows rj
              && bn.Nested.Grouped.groups = rn.Nested.Grouped.groups
              && Relation.rows bf = Relation.rows rf
        in
        Printf.printf "%8d | %10.4f %10.4f %10.4f | %b\n%!" d tj tn tf
          identical;
        (d, tj, tn, tf, identical))
      [ 0; 1; 2; 4 ]
  in
  Pool.set_size 0;
  let b0 = List.hd points in
  let base (_, tj, tn, tf, _) = (tj, tn, tf) in
  let bj, bn, bf = base b0 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "{\n\
    \    \"note\": \"speedup = serial_best_of_3 / best_of_3; wall-clock \
     speedup is bounded by host_cores regardless of the domain count; \
     identity is structural equality against the domains=0 result\",\n\
    \    \"points\": [\n";
  List.iteri
    (fun i (d, tj, tn, tf, identical) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"domains\": %d, \"join_s\": %.6f, \"nest_s\": %.6f, \
            \"filter_s\": %.6f, \"join_speedup\": %.3f, \"nest_speedup\": \
            %.3f, \"filter_speedup\": %.3f, \"identical\": %b}"
           d tj tn tf (bj /. tj) (bn /. tn) (bf /. tf) identical))
    points;
  Buffer.add_string buf "\n    ]\n  }";
  domains_section := Some (Buffer.contents buf)

(* ---------- columnar sweep ----------

   Row-at-a-time vs columnar timings for the four kernel shapes, at
   domains=0 — an honest single-core comparison, no parallel speedup
   mixed in.  Per kernel: disable the columnar core and take the best
   of five runs, then enable it (priming the base-relation batches the
   way Exec.Frame does at scan time) and repeat; the two results must
   be structurally identical.  The probe-heavy join direction (big
   lineitem probing a small orders build) is where the hash-vector
   probe win shows; every kernel input is a scan-primed base relation,
   the only place the hash-vector paths engage (intermediates hash
   inline either way — see Join.key_vectors). *)

let columnar_sweep () =
  let open Nra in
  header "Columnar sweep"
    "row vs columnar kernels at domains=0 (structural identity checked)";
  Pool.set_size 0;
  let lineitem = Table.relation (Catalog.table cat "lineitem") in
  let orders = Table.relation (Catalog.table cat "orders") in
  let li_schema = Relation.schema lineitem in
  let o_schema = Relation.schema orders in
  let okey = Schema.find o_schema ~table:"orders" "o_orderkey" in
  let lkey = Schema.find li_schema ~table:"lineitem" "l_orderkey" in
  let o_arity = Schema.arity o_schema in
  let li_arity = Schema.arity li_schema in
  let join_build_on =
    Expr.Cmp (Three_valued.Eq, Expr.Col okey, Expr.Col (o_arity + lkey))
  in
  let join_probe_on =
    Expr.Cmp (Three_valued.Eq, Expr.Col lkey, Expr.Col (li_arity + okey))
  in
  let filter_on =
    Expr.Cmp (Three_valued.Gt, Expr.Col lkey, Expr.Const (Value.Int 100))
  in
  (* nest over a primed base relation: the key-hash vectors only engage
     for scan-primed inputs (intermediates hash inline either way, so
     timing them would compare identical code) *)
  let by = [| lkey |] in
  let keep = [| lkey; lkey |] in
  let kernels =
    [
      ( "filter_morsel",
        fun () -> `R (Algebra.Basic.select filter_on lineitem) );
      ( "join_build_heavy",
        fun () ->
          `R (Algebra.Join.join Algebra.Join.Inner ~on:join_build_on orders
                lineitem) );
      (* Anti (the NOT EXISTS shape): the probe pass IS the work — no
         output rows get built, so the timing isolates hash + bucket
         scan instead of drowning it in Row.concat allocation *)
      ( "join_probe_heavy",
        fun () ->
          `R (Algebra.Join.join Algebra.Join.Anti ~on:join_probe_on
                lineitem orders) );
      ( "nest_hash",
        fun () -> `N (Nested.Grouped.nest_hash ~by ~keep lineitem) );
    ]
  in
  let same a b =
    match (a, b) with
    | `R x, `R y -> Relation.rows x = Relation.rows y
    | `N x, `N y -> x.Nested.Grouped.groups = y.Nested.Grouped.groups
    | _ -> false
  in
  (* the two legs are interleaved rep by rep, each preceded by an
     untimed warm run and a full major GC: heap drift over a long
     process hits both legs equally instead of whichever leg happened
     to run later *)
  let timed f =
    ignore (f ());
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  Printf.printf "%-18s | %10s %11s %8s | identical\n" "kernel" "row(s)"
    "columnar(s)" "speedup";
  let points =
    List.map
      (fun (name, run) ->
        let best_row = ref infinity and best_col = ref infinity in
        let row_res = ref None and col_res = ref None in
        for _ = 1 to 5 do
          Batch.set_enabled false;
          let dt, r = timed run in
          if dt < !best_row then best_row := dt;
          row_res := Some r;
          Batch.set_enabled true;
          Batch.prime lineitem;
          Batch.prime orders;
          (* the warm run inside [timed] also re-forces the lazy
             columns the toggle flush dropped, so the timed run sees
             the scan-primed steady state *)
          let dt, r = timed run in
          if dt < !best_col then best_col := dt;
          col_res := Some r
        done;
        let trow = !best_row and tcol = !best_col in
        let identical =
          match (!row_res, !col_res) with
          | Some a, Some b -> same a b
          | _ -> false
        in
        Printf.printf "%-18s | %10.4f %11.4f %8.2f | %b\n%!" name trow tcol
          (trow /. tcol) identical;
        (name, trow, tcol, identical))
      kernels
  in
  Batch.set_enabled true;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "{\n\
    \    \"note\": \"row_s = NRA_COLUMNAR off, columnar_s = on with \
     base-relation batches primed, both best-of-5 at domains=0; speedup = \
     row_s / columnar_s; identity is structural equality of the two \
     results\",\n\
    \    \"kernels\": [\n";
  List.iteri
    (fun i (name, trow, tcol, identical) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "      {\"kernel\": %s, \"row_s\": %.6f, \"columnar_s\": %.6f, \
            \"speedup\": %.3f, \"identical\": %b}"
           (json_string name) trow tcol (trow /. tcol) identical))
    points;
  Buffer.add_string buf "\n    ]\n  }";
  columnar_section := Some (Buffer.contents buf);
  if List.exists (fun (_, _, _, ok) -> not ok) points then begin
    prerr_endline "columnar sweep: result divergence";
    exit 1
  end

(* ---------- out-of-core sweep ----------

   The paper's queries under three buffer-pool frame budgets — tiny
   (everything spills and thrashes), the paper's 32 MB cache (exact
   frame count via Iosim.frames_for_mb), and unbounded (pool disabled,
   the pre-pool engine) — with a CSV-identity check of every run
   against the pool-disabled reference and the pool counters recorded
   per point; results land in BENCH_outofcore.json.  The naive point
   shows the other side of the cache story: index-free nested
   iteration rescans the inner block per outer tuple, which a resident
   inner table makes nearly free and a tiny budget makes brutal. *)

let outofcore_sweep () =
  let open Nra in
  header "Out-of-core sweep"
    "frame budgets tiny / paper-32MB / unbounded; CSV identity checked \
     against the pool-disabled run";
  let runs =
    [
      ("q1/nra-opt", Nra.Nra_optimized, List.nth (q1_sqls ()) 3);
      ("q1/naive", Nra.Naive, List.nth (q1_sqls ()) 0);
      ("q2b/nra-opt", Nra.Nra_optimized, List.nth (q2_sqls Q.All) 1);
    ]
  in
  let budgets =
    [
      ("tiny", Some 8);
      ("paper-32mb", Some (Iosim.frames_for_mb 32.0));
      ("unbounded", None);
    ]
  in
  Bufpool.set_frames None;
  let refs =
    List.map
      (fun (name, strategy, sql) ->
        (name, Relation.to_csv (query_exn ~strategy cat sql)))
      runs
  in
  Printf.printf "%-12s %-12s %10s %10s %6s %6s %6s %6s | identical\n"
    "budget" "run" "cpu(s)" "sim(s)" "hit" "miss" "evict" "spill";
  let all_ok = ref true in
  let point_rows =
    List.concat_map
      (fun (bname, frames) ->
        Bufpool.set_frames frames;
        List.map
          (fun (qname, strategy, sql) ->
            ignore (query_exn ~strategy cat sql);
            Iosim.reset ();
            let t0 = Unix.gettimeofday () in
            let rel = query_exn ~strategy cat sql in
            let cpu = Unix.gettimeofday () -. t0 in
            let sim = Iosim.simulated_seconds () in
            let bp = Bufpool.stats () in
            let gv = Governor.stats () in
            let identical =
              Relation.to_csv rel = List.assoc qname refs
            in
            if not identical then all_ok := false;
            Printf.printf
              "%-12s %-12s %10.3f %10.2f %6d %6d %6d %6d | %b\n%!" bname
              qname cpu sim bp.Bufpool.hits bp.Bufpool.misses
              bp.Bufpool.evictions bp.Bufpool.spilled_partitions identical;
            (bname, frames, qname, cpu, sim, bp, gv, identical))
          runs)
      budgets
  in
  Bufpool.set_frames None;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"scale\": %g,\n  \"page_size_kb\": %g,\n  \"note\": \
        \"identity is CSV equality against the pool-disabled run; \
        frames=0 means the pool is disabled\",\n  \"points\": [\n"
       !scale (Iosim.config ()).Iosim.page_size_kb);
  List.iteri
    (fun i (bname, frames, qname, cpu, sim, bp, gv, identical) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"budget\": %s, \"frames\": %d, \"run\": %s, \"cpu_s\": \
            %.6f, \"sim_s\": %.4f, \"hits\": %d, \"misses\": %d, \
            \"evictions\": %d, \"writebacks\": %d, \
            \"spilled_partitions\": %d, \"spilled_pages\": %d, \
            \"governor_hw_bytes\": %d, \"governor_stagings\": %d, \
            \"governor_spilled_stagings\": %d, \"spill_volume_kb\": %d, \
            \"identical\": %b}"
           (json_string bname)
           (Option.value frames ~default:0)
           (json_string qname) cpu sim bp.Nra.Bufpool.hits
           bp.Nra.Bufpool.misses bp.Nra.Bufpool.evictions
           bp.Nra.Bufpool.writebacks bp.Nra.Bufpool.spilled_partitions
           bp.Nra.Bufpool.spilled_pages gv.Nra.Governor.high_water_bytes
           gv.Nra.Governor.stagings gv.Nra.Governor.spilled_stagings
           (int_of_float
              (float_of_int bp.Nra.Bufpool.spilled_pages
              *. (Iosim.config ()).Iosim.page_size_kb))
           identical))
    point_rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_outofcore.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_outofcore.json (every point identical: %b)\n"
    !all_ok;
  if not !all_ok then exit 1

(* ---------- rewrite sweep ----------

   The algebraic rewrite pass (lib/opt) on and off over the Figure 4
   and Figure 6 queries, per NRA strategy and for auto: simulated and
   CPU cost each way, whether the cost gate fired for the plan that
   ran, and — for auto — which strategy it picked under each
   configuration.  This is the acceptance evidence that auto selects a
   rewritten plan with a measured improvement on a benched Figure 4
   query; results land in the rewrite_sweep section of
   BENCH_subqueries.json. *)

let rewrite_sweep () =
  header "Rewrite sweep"
    "--rewrite none vs all per strategy; 'fired' = the cost gate \
     rewrote the plan that ran";
  let rw_strategies =
    [
      ("nra-orig", Nra.Nra_original);
      ("nra-opt", Nra.Nra_optimized);
      ("nra-full", Nra.Nra_full);
      ("auto", Nra.Auto);
    ]
  in
  let sweep_one fig sql =
    let analyzed =
      match Nra.Planner.Analyze.analyze_string cat sql with
      | Ok t -> t
      | Error m -> failwith m
    in
    let outer = outer_block_size cat sql in
    let pick () =
      match Nra.auto_choice cat sql with
      | Ok c -> Nra.strategy_to_string c
      | Error m -> "error: " ^ m
    in
    let runs =
      List.map
        (fun (name, strategy) ->
          Nra.set_rewrite_rules [];
          let off = run_strategy cat strategy sql in
          let pick_off = match strategy with Nra.Auto -> pick () | _ -> "" in
          Nra.set_rewrite_rules Nra.Opt.Config.all;
          let on = run_strategy cat strategy sql in
          let pick_on = match strategy with Nra.Auto -> pick () | _ -> "" in
          let fired =
            let plan_of =
              match strategy with
              | Nra.Auto -> Nra.strategy_of_string pick_on
              | s -> Some s
            in
            match plan_of with
            | Some s -> (
                match Nra.nra_base_options s with
                | Some base -> Nra.rewrite_for cat analyzed base <> None
                | None -> false)
            | None -> false
          in
          Nra.set_rewrite_rules [];
          Printf.printf
            "  fig %-3s outer %-7d %-9s off sim %8.2fs  on sim %8.2fs  \
             fired %-5b%s\n%!"
            fig outer name off.sim on.sim fired
            (match strategy with
            | Nra.Auto ->
                Printf.sprintf "  (pick: %s -> %s)" pick_off pick_on
            | _ -> "");
          { rw_name = name; fired; pick_off; pick_on; off; on })
        rw_strategies
    in
    rewrite_points :=
      { rwp_fig = fig; rwp_outer = outer; rwp_runs = runs }
      :: !rewrite_points
  in
  List.iter (sweep_one "4") (q1_sqls ());
  List.iter (sweep_one "6") (q2_sqls Q.All)

(* ---------- main ---------- *)

let () =
  if !run_domains_sweep || !run_columnar_sweep then begin
    if !run_domains_sweep then domains_sweep ();
    if !run_columnar_sweep then columnar_sweep ();
    write_bench_parallel ();
    exit 0
  end;
  if !run_outofcore_sweep then begin
    outofcore_sweep ();
    exit 0
  end;
  (* with explicit --figure selections the rewrite sweep composes with
     them (one emit at the end records both); alone it keeps the old
     sweep-and-exit behavior *)
  if !run_rewrite_sweep then begin
    rewrite_sweep ();
    if !selected_figures = [] then begin
      emit_json "BENCH_subqueries.json";
      exit 0
    end
  end;
  if wanted 4 then figure4 ();
  if wanted 5 then figure5 ();
  if wanted 6 then figure6 ();
  if wanted 7 then figure789 7 "3a (mixed ALL / EXISTS)" ~quant:Q.All ~exists:true;
  if wanted 8 then figure789 8 "3b (negative ALL / NOT EXISTS)" ~quant:Q.All ~exists:false;
  if wanted 9 then figure789 9 "3c (positive ANY / EXISTS)" ~quant:Q.Any ~exists:true;
  if wanted 10 then figure10 ();
  if wanted 11 then robustness ();
  if wanted 12 then figure_ja ();
  if !run_ablation && !selected_figures = [] then ablations ();
  if !run_micro && !selected_figures = [] then micro ();
  if !points <> [] then emit_json "BENCH_subqueries.json";
  print_newline ()
