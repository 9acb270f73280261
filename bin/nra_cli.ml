(* Command-line front end: run SQL with any evaluation strategy against
   a generated TPC-H catalog, inspect plans, or start a small REPL.

     dune exec bin/nra_cli.exe -- query "select ..." --strategy auto
     dune exec bin/nra_cli.exe -- explain "select ..." --costs
     dune exec bin/nra_cli.exe -- analyze [table]
     dune exec bin/nra_cli.exe -- repl --scale 0.01
     dune exec bin/nra_cli.exe -- tables *)

open Cmdliner

(* ---------- shared options ---------- *)

let scale =
  let doc = "TPC-H scale factor (1.0 = official SF 1 row counts)." in
  Arg.(value & opt float 0.01 & info [ "scale" ] ~docv:"S" ~doc)

let seed =
  let doc = "Data generator seed." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"N" ~doc)

let null_rate =
  let doc =
    "Probability of NULL in the nullable money columns (exercises \
     three-valued semantics)."
  in
  Arg.(value & opt float 0.0 & info [ "null-rate" ] ~docv:"P" ~doc)

let not_null =
  let doc =
    "Declare NOT NULL constraints on l_extendedprice / ps_supplycost \
     (lets the classical strategy antijoin ALL and NOT IN)."
  in
  Arg.(value & flag & info [ "not-null" ] ~doc)

let strategy =
  let parse s =
    match Nra.strategy_of_string s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown strategy %S (expected one of %s)" s
               (String.concat ", " (List.map fst Nra.strategies))))
  in
  let print ppf s = Format.pp_print_string ppf (Nra.strategy_to_string s) in
  let strategy_conv = Arg.conv (parse, print) in
  let doc =
    "Evaluation strategy: naive (nested iteration), classical \
     (semijoin/antijoin unnesting), nra-original, nra-optimized or \
     nra-full (the paper's approach), hybrid (Section 6 dispatch), or \
     auto (cost-based: ANALYZE statistics price every strategy and the \
     cheapest runs)."
  in
  Arg.(
    value & opt strategy_conv Nra.Nra_optimized & info [ "strategy"; "s" ] ~doc)

let rewrite_arg =
  let parse s = Result.map_error (fun m -> `Msg m) (Nra.Opt.Config.parse s) in
  let print ppf rs = Format.pp_print_string ppf (Nra.Opt.Config.mask rs) in
  let rules_conv = Arg.conv (parse, print) in
  let doc =
    "Algebraic rewrite rules applied to NRA plans before execution: \
     $(b,all), $(b,none), or a comma-separated subset of \
     $(b,push-down), $(b,semijoin).  Each candidate \
     rewrite is priced by the cost model and fires only on improvement; \
     results are identical under any setting.  Overrides the \
     NRA_REWRITE environment variable."
  in
  Arg.(
    value & opt (some rules_conv) None & info [ "rewrite" ] ~docv:"RULES" ~doc)

let make_catalog scale seed null_rate not_null =
  let cfg =
    {
      Nra.Tpch.Gen.scale;
      seed;
      null_rate;
      declare_not_null = not_null;
    }
  in
  let cat = Nra.Tpch.Gen.generate cfg in
  Nra.Tpch.Gen.add_benchmark_indexes cat;
  cat

let sql_arg =
  let doc = "The SQL query (quote it)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)

let csv =
  let doc = "Print the result as CSV instead of an aligned table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let timing =
  let doc = "Print measured CPU and simulated 2005-disk time." in
  Arg.(value & flag & info [ "time" ] ~doc)

(* ---------- guard / fault options ---------- *)

(* An engine flag read through its setting's range in
   [Nra.Engine_config.Range], as the environment is: a value out of
   range is a usage error naming the flag and the value. *)
let ranged parse print =
  Arg.conv'
    ( (fun s ->
        Result.map_error
          (fun why -> Printf.sprintf "invalid value '%s', %s" s why)
          (parse s)),
      print )

let ranged_int parse = ranged parse Format.pp_print_int
let ranged_float parse = ranged parse Format.pp_print_float

let timeout_ms =
  let doc = "Kill the query after this much wall-clock time (ms)." in
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)

let io_budget_ms =
  let doc =
    "Kill the query after this much simulated-2005-disk time (ms); \
     deterministic for a given query and data."
  in
  Arg.(
    value & opt (some float) None & info [ "io-budget-ms" ] ~docv:"MS" ~doc)

let max_rows =
  let doc = "Kill the query after materializing this many intermediate rows." in
  Arg.(value & opt (some int) None & info [ "max-rows" ] ~docv:"N" ~doc)

let faults =
  let doc =
    "Inject transient storage faults with this per-read probability \
     (deterministic, see --fault-seed); executors retry with backoff."
  in
  Arg.(
    value
    & opt (ranged_float Nra.Engine_config.Range.probability) 0.0
    & info [ "faults" ] ~docv:"P" ~doc)

let fault_seed =
  let doc = "Fault-injection PRNG seed." in
  Arg.(
    value
    & opt (ranged_int Nra.Engine_config.Range.seed) 1
    & info [ "fault-seed" ] ~docv:"N" ~doc)

(* ---------- out-of-core storage options ---------- *)

let buffer_pages =
  let doc =
    "Buffer-pool frame budget in pages (0 disables the pool).  When an \
     input exceeds the budget, joins switch to grace/hybrid hash and \
     nests spill partitions — results are bit-identical at every \
     setting.  Default: the NRA_BUFFER_PAGES environment variable."
  in
  Arg.(
    value
    & opt (some (ranged_int Nra.Engine_config.Range.pages)) None
    & info [ "buffer-pages" ] ~docv:"N" ~doc)

let buffer_mb =
  let doc =
    "Buffer-pool budget in megabytes, converted to whole frames at the \
     configured page size (see $(b,--page-size-kb)); the paper's 32 MB \
     buffer cache is $(b,--buffer-mb 32)."
  in
  Arg.(
    value
    & opt (some (ranged_float Nra.Engine_config.Range.megabytes)) None
    & info [ "buffer-mb" ] ~docv:"MB" ~doc)

let page_size_kb =
  let doc =
    "Simulated page size in KB (default 8) — the unit $(b,--buffer-mb) \
     divides by, so memory budgets convert to exact frame counts."
  in
  Arg.(
    value
    & opt (some (ranged_float Nra.Engine_config.Range.page_size_kb)) None
    & info [ "page-size-kb" ] ~docv:"KB" ~doc)

(* ---------- serving-layer options (repl) ---------- *)

let session_wall_ms =
  let doc =
    "Aggregate wall-clock budget (ms) for the whole REPL session; spent \
     down by every statement."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "session-budget-wall-ms" ] ~docv:"MS" ~doc)

let session_io_ms =
  let doc =
    "Aggregate simulated-I/O budget (ms) for the whole REPL session."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "session-budget-io-ms" ] ~docv:"MS" ~doc)

let session_rows =
  let doc =
    "Aggregate intermediate-row budget for the whole REPL session."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "session-budget-rows" ] ~docv:"N" ~doc)

let max_concurrent =
  let doc = "Admission control: concurrent execution slots." in
  Arg.(
    value
    & opt int Nra_server.Admission.default_config.max_concurrent
    & info [ "max-concurrent" ] ~docv:"N" ~doc)

let queue_len =
  let doc = "Admission control: bounded wait-queue length." in
  Arg.(
    value
    & opt int Nra_server.Admission.default_config.queue_len
    & info [ "queue-len" ] ~docv:"N" ~doc)

let quantum_ms =
  let doc =
    "Cooperative scheduler quantum: simulated-I/O milliseconds a \
     statement may charge per slice before yielding to other in-flight \
     statements ('inf' disables interleaving: a statement runs to \
     completion once scheduled)."
  in
  Arg.(
    value
    & opt float Nra_server.Scheduler.default_quantum_ms
    & info [ "quantum-ms" ] ~docv:"MS" ~doc)

let domains_arg =
  let doc =
    "Worker domains for intra-query parallelism (morsel-driven hash \
     join, nest, and scan+filter). 0 forces the serial path; the \
     default is the NRA_DOMAINS environment variable, else the host \
     core count minus one. Results are bit-identical at every setting."
  in
  Arg.(
    value
    & opt (some (ranged_int Nra.Engine_config.Range.domains)) None
    & info [ "domains" ] ~docv:"N" ~doc)

(* ---------- the engine configuration ---------- *)

(* The NRA_* environment, then the flags over it: one value, which each
   command installs before it does any work.  A malformed variable is a
   usage error. *)
let engine_config rules domains faults fault_seed page_size_kb buffer_pages
    buffer_mb =
  match Nra.Engine_config.of_env Sys.getenv_opt with
  | Error m -> `Error (false, m)
  | Ok c ->
      `Ok
        {
          c with
          rules = Option.value rules ~default:c.rules;
          domains = Option.value domains ~default:c.domains;
          iosim =
            (match page_size_kb with
            | Some kb -> { c.iosim with Nra.Iosim.page_size_kb = kb }
            | None -> c.iosim);
          frames =
            (match (buffer_mb, buffer_pages) with
            | Some mb, _ -> Nra.Engine_config.Mb mb
            | None, Some 0 -> Nra.Engine_config.Off
            | None, Some n -> Nra.Engine_config.Pages n
            | None, None -> c.frames);
          faults =
            (if faults > 0.0 then
               { c.faults with probability = faults; seed = fault_seed }
             else c.faults);
        }

let engine =
  Term.(
    ret
      (const engine_config $ rewrite_arg $ domains_arg $ faults $ fault_seed
     $ page_size_kb $ buffer_pages $ buffer_mb))

(* the environment under [rules] alone: commands without the other
   engine flags *)
let engine_with rules =
  Term.(
    ret
      (const engine_config $ rules $ const None $ const 0.0 $ const 1
     $ const None $ const None $ const None))

(* Run [f] over a budget assembled from the flags, with SIGINT wired to
   the budget's cancel token for the duration (the default Ctrl-C
   behavior is restored afterwards, so a second Ctrl-C at a prompt still
   kills the process). *)
let with_guard_flags timeout_ms io_budget_ms max_rows f =
  let tok = Nra.Guard.token () in
  let b =
    Nra.Guard.budget ?wall_ms:timeout_ms ?sim_io_ms:io_budget_ms
      ?max_rows ~cancel_on:tok ()
  in
  let old =
    Sys.signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Nra.Guard.cancel tok))
  in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigint old)
    (fun () -> f b)

let print_robustness_report () =
  let ev = Nra.Guard.events () in
  if
    ev.Nra.Guard.budget_kills + ev.Nra.Guard.cancellations
    + ev.Nra.Guard.auto_fallbacks > 0
  then
    Printf.printf
      "guard: %d budget kill(s), %d cancellation(s), %d auto fallback(s)\n"
      ev.Nra.Guard.budget_kills ev.Nra.Guard.cancellations
      ev.Nra.Guard.auto_fallbacks;
  if Nra.Fault.enabled () then begin
    let fs = Nra.Fault.stats () in
    Printf.printf
      "faults: %d injected, %d retried, %d escaped, %.2f ms backoff\n"
      fs.Nra.Fault.injected fs.Nra.Fault.retried fs.Nra.Fault.escaped
      fs.Nra.Fault.backoff_ms_total
  end

(* ---------- commands ---------- *)

let run_query strategy engine scale seed null_rate not_null csv timing
    timeout_ms io_budget_ms max_rows sql =
  Nra.configure engine;
  let cat = make_catalog scale seed null_rate not_null in
  (* a torn WAL (e.g. a crash fault in a prior in-process run) is
     repaired before the statement executes *)
  (match Nra.Wal.recover_if_needed cat with
  | Some s ->
      Printf.eprintf
        "recovered unfinished statement(s) from WAL (%d redone, %d \
         undone)\n%!"
        s.Nra.Wal.redone s.Nra.Wal.undone
  | None -> ());
  (* statistics collection is pure CPU (no Iosim charges), so Auto's
     choice is informed without distorting the reported simulation *)
  if strategy = Nra.Auto then ignore (Nra.exec cat "analyze");
  Nra_storage.Iosim.reset ();
  let t0 = Unix.gettimeofday () in
  match
    with_guard_flags timeout_ms io_budget_ms max_rows (fun guard ->
        Nra.query ~strategy ~guard cat sql)
  with
  | Ok rel ->
      let dt = Unix.gettimeofday () -. t0 in
      if csv then print_string (Nra.Relation.to_csv rel)
      else Format.printf "%a@." Nra.Relation.pp rel;
      if timing then begin
        let c = Nra_storage.Iosim.counters () in
        let strategy_label =
          match strategy with
          | Nra.Auto -> (
              match Nra.auto_choice cat sql with
              | Ok s -> "auto -> " ^ Nra.strategy_to_string s
              | Error _ -> "auto")
          | s -> Nra.strategy_to_string s
        in
        Printf.printf
          "cpu: %.3fs   simulated-2005-disk: %.2fs   strategy: %s\n" dt
          (Nra_storage.Iosim.simulated_seconds ())
          strategy_label;
        Printf.printf
          "io: %d seq pages, %d random pages, %d tuples fetched, cache \
           %d hit / %d miss\n"
          c.Nra_storage.Iosim.seq_pages c.Nra_storage.Iosim.rand_pages
          c.Nra_storage.Iosim.fetched_rows
          (Nra_storage.Iosim.cache_hits ())
          (Nra_storage.Iosim.cache_misses ());
        if Nra.Bufpool.enabled () then begin
          let bp = Nra.Bufpool.stats () in
          Printf.printf
            "pool: %s frames, %d hit / %d miss, %d eviction(s), %d \
             writeback(s), %d spilled partition(s) (%d page(s)), %d WAL \
             record(s)\n"
            (match Nra.Bufpool.frames () with
            | Some f -> string_of_int f
            | None -> "-")
            bp.Nra.Bufpool.hits bp.Nra.Bufpool.misses
            bp.Nra.Bufpool.evictions bp.Nra.Bufpool.writebacks
            bp.Nra.Bufpool.spilled_partitions bp.Nra.Bufpool.spilled_pages
            (Nra.Wal.records ())
        end;
        let gv = Nra.Governor.stats () in
        if gv.Nra.Governor.stagings > 0 then begin
          let bp = Nra.Bufpool.stats () in
          Printf.printf
            "governor: %d staged (%d rows), high-water %d bytes, %d \
             spilled (%d rows), largest resident %d page(s), spill \
             volume %d KB\n"
            gv.Nra.Governor.stagings gv.Nra.Governor.staged_rows
            gv.Nra.Governor.high_water_bytes
            gv.Nra.Governor.spilled_stagings gv.Nra.Governor.spilled_rows
            gv.Nra.Governor.max_resident_pages
            (int_of_float
               (float_of_int bp.Nra.Bufpool.spilled_pages
               *. (Nra_storage.Iosim.config ()).Nra_storage.Iosim
                  .page_size_kb))
        end
      end;
      if timing then print_robustness_report ();
      `Ok ()
  | Error m ->
      if timing then print_robustness_report ();
      `Error (false, m)

let query_cmd =
  let info = Cmd.info "query" ~doc:"Run a SQL query over generated TPC-H data." in
  Cmd.v info
    Term.(
      ret
        (const run_query $ strategy $ engine $ scale $ seed $ null_rate
       $ not_null $ csv $ timing $ timeout_ms $ io_budget_ms $ max_rows
       $ sql_arg))

let costs =
  let doc =
    "Also price every evaluation strategy with the cost model (after \
     ANALYZE over the generated tables) and show the strategy `auto' \
     would run."
  in
  Arg.(value & flag & info [ "costs" ] ~doc)

let run_explain engine scale seed null_rate not_null costs sql =
  Nra.configure engine;
  let cat = make_catalog scale seed null_rate not_null in
  match Nra.explain cat sql with
  | Ok text ->
      print_endline text;
      if costs then begin
        ignore (Nra.exec cat "analyze");
        match Nra.explain_costs cat sql with
        | Ok report ->
            print_newline ();
            print_string report
        | Error m -> Printf.printf "cost estimation failed: %s\n" m
      end;
      `Ok ()
  | Error m -> `Error (false, m)

let explain_cmd =
  let info =
    Cmd.info "explain"
      ~doc:
        "Show the paper's tree expression for a query, its nesting \
         depth/linearity, and the strategy the classical baseline would \
         pick per subquery; with $(b,--costs), the cost model's \
         per-strategy estimates and auto's choice."
  in
  Cmd.v info
    Term.(
      ret
        (const run_explain $ engine_with rewrite_arg $ scale $ seed
       $ null_rate $ not_null $ costs $ sql_arg))

let run_tables engine scale seed null_rate not_null =
  Nra.configure engine;
  let cat = make_catalog scale seed null_rate not_null in
  Format.printf "%a@." Nra.Catalog.pp cat

let tables_cmd =
  let info = Cmd.info "tables" ~doc:"List the generated tables." in
  Cmd.v info
    Term.(
      const run_tables $ engine_with (const None) $ scale $ seed $ null_rate
      $ not_null)

let table_arg =
  let doc = "Analyze only this table (default: every table)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"TABLE" ~doc)

let run_analyze engine scale seed null_rate not_null table =
  Nra.configure engine;
  let cat = make_catalog scale seed null_rate not_null in
  let sql =
    match table with Some t -> "analyze " ^ t | None -> "analyze"
  in
  match Nra.exec cat sql with
  | Ok (Nra.Done msg) ->
      print_endline msg;
      List.iter
        (fun t ->
          Option.iter
            (Format.printf "%a@." Nra.Stats.Table_stats.pp)
            (Nra.Catalog.stats cat (Nra.Table.name t)))
        (Nra.Catalog.tables cat);
      `Ok ()
  | Ok _ -> `Error (false, "unexpected result")
  | Error m -> `Error (false, m)

let analyze_cmd =
  let info =
    Cmd.info "analyze"
      ~doc:
        "Collect optimizer statistics (row counts, NDV, null fractions, \
         histograms, clustering) over the generated tables and print \
         them."
  in
  Cmd.v info
    Term.(
      ret
        (const run_analyze $ engine_with (const None) $ scale $ seed
       $ null_rate $ not_null $ table_arg))

let run_repl strategy engine scale seed null_rate not_null timeout_ms
    io_budget_ms max_rows session_wall_ms session_io_ms session_rows
    max_concurrent queue_len quantum_ms =
  Nra.configure engine;
  let cat = make_catalog scale seed null_rate not_null in
  let server =
    Nra_server.Server.create
      ~config:
        {
          Nra_server.Server.default_config with
          admission =
            {
              Nra_server.Admission.default_config with
              max_concurrent;
              queue_len;
            };
          session_wall_ms;
          session_sim_io_ms = session_io_ms;
          session_rows;
          strategy;
          quantum_ms;
        }
      cat
  in
  let session = Nra_server.Server.session server ~label:"repl" () in
  Printf.printf
    "nra repl — strategy %s; end statements with a blank line; \\q quits; \
     \\session reports the session; Ctrl-C cancels the running statement.\n"
    (Nra.strategy_to_string strategy);
  let buf = Buffer.create 256 in
  let rec loop () =
    if Buffer.length buf = 0 then print_string "nra> "
    else print_string "...> ";
    flush stdout;
    match input_line stdin with
    | exception End_of_file -> Nra_server.Server.close_session server session
    | "\\q" -> Nra_server.Server.close_session server session
    | "\\session" ->
        print_endline (Nra_server.Server.report server session);
        loop ()
    | "" when Buffer.length buf > 0 ->
        let sql = Buffer.contents buf in
        Buffer.clear buf;
        (* the SIGINT handler is scoped to the statement: Ctrl-C here
           cancels cooperatively, Ctrl-C at the prompt still exits.  The
           per-statement guard only tightens the session allowance. *)
        (match
           with_guard_flags timeout_ms io_budget_ms max_rows (fun guard ->
               Nra_server.Server.exec server ~guard session sql)
         with
        | Ok (Nra.Rows rel) -> Format.printf "%a@." Nra.Relation.pp rel
        | Ok (Nra.Count n) -> Printf.printf "%d row(s) affected\n" n
        | Ok (Nra.Done msg) -> print_endline msg
        | Error e -> Printf.printf "error: %s\n" (Nra.Exec_error.to_string e));
        loop ()
    | "" -> loop ()
    | line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        loop ()
  in
  loop ()

let repl_cmd =
  let info =
    Cmd.info "repl"
      ~doc:
        "Interactive SQL loop through the serving layer: a session with \
         optional aggregate budgets, admission control, and a \
         generation-checked plan cache."
  in
  Cmd.v info
    Term.(
      const run_repl $ strategy $ engine $ scale $ seed $ null_rate $ not_null
      $ timeout_ms $ io_budget_ms $ max_rows $ session_wall_ms $ session_io_ms
      $ session_rows $ max_concurrent $ queue_len $ quantum_ms)

let main =
  let info =
    Cmd.info "nra-cli" ~version:"1.0.0"
      ~doc:
        "Nested relational processing of SQL subqueries (Cao & Badia, \
         SIGMOD 2005)."
  in
  Cmd.group info [ query_cmd; explain_cmd; analyze_cmd; tables_cmd; repl_cmd ]

let () = exit (Cmd.eval main)
