(* The benchmark: SQL text in, rows out, through Nra_server.Server.

     main.exe --workload ja_scale|ja_spill|paper_mix_rw --seed N
              --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics (BENCHMARK.json
   "end_to_end"); --trace 1 the per-layer split ("per_layer").  Either
   way every statement's result is checked against a reference computed
   under a second strategy, a report with the deterministic fields is
   written to perfbench/results/, and the last line of stdout is the
   result object:

     {"correct": …, "attempted": …, "failed": …, "metrics": {…}}

   The exit code is 1 when any statement failed or returned a wrong
   result.  Normally run through perfbench/run.py, which builds this
   program first. *)

open Perfbench

let results = "perfbench/results"

(* set-ups per run; setup_s is their median *)
let setups = 3

let usage () =
  prerr_endline
    "usage: main.exe --workload ja_scale|ja_spill|paper_mix_rw --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 10.0 in
  let trace = ref false in
  let num conv r s = match conv s with Some v -> r := v | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match List.assoc_opt w Workload.names with
        | Some n -> workload := Some n
        | None -> usage ());
        parse rest
    | "--seed" :: s :: rest ->
        num (fun s -> Option.map Option.some (int_of_string_opt s)) seed s;
        parse rest
    | "--seconds" :: s :: rest ->
        num float_of_string_opt seconds s;
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let name, seed =
    match (!workload, !seed) with
    | Some n, Some s -> (n, s)
    | _ -> usage ()
  in
  let metric_json (n, u, v) =
    (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ])
  in
  let shape = Workload.shape name in
  let wname = Workload.name_to_string name in
  Printf.eprintf "%s: seed %d, scale %g\n%!" wname seed shape.Workload.scale;
  if not (Sys.file_exists results) then Sys.mkdir results 0o755;
  let env, setup_s = Workload.setup shape ~seed ~setups in
  let t0 = Unix.gettimeofday () in
  Workload.compute_references env;
  let reference_s = Unix.gettimeofday () -. t0 in
  Printf.eprintf "set-up %s s, references %.2f s\n%!"
    (String.concat ", " (List.map (Printf.sprintf "%.2f") setup_s))
    reference_s;
  let metrics, tally, extra =
    if not !trace then begin
      let first, t, pass_rates = Measure.measure env ~seconds:!seconds in
      ( Measure.end_to_end ~setup_s first t,
        t,
        [
          ("host", Json.Obj (List.map metric_json (Measure.host ~pass_rates t)));
          ("deterministic", Measure.deterministic env first);
          ("open_loop", Json.List (List.map Measure.phase_json first.Measure.phases));
          ("server_max_qps_at_slo", Json.Float (Measure.max_qps_at_slo first));
          ("slo_ms", Json.Float Measure.slo_ms);
          ("nominal_rate_stmt_per_s", Json.Float Measure.nominal_rate);
          ("pass_throughputs", Json.List (List.map (fun r -> Json.Float r) pass_rates));
        ]
        @
        if shape.Workload.name = Workload.Paper_mix_rw then []
        else [ ("nestgpu_comparison", Measure.nestgpu_table env t) ] )
    end
    else begin
      let res = Trace.run env ~seconds:!seconds in
      let spans =
        Filename.concat results (Printf.sprintf "%s-seed%d-spans.jsonl" wname seed)
      in
      Trace.write_spans spans res.Trace.recorder;
      ( Trace.per_layer res,
        res.Trace.tally,
        [
          ("deterministic", Measure.deterministic env res.Trace.server_pass);
          ("trace_deterministic", Trace.deterministic res);
          ("qerror_table", Trace.qerror_table res);
          ("spans_file", Json.String spans);
        ] )
    end
  in
  let failed = Measure.failed tally in
  let report =
    Json.Obj
      ([
         ("workload", Json.String wname);
         ("seed", Json.Int seed);
         ("scale", Json.Float shape.Workload.scale);
         ("strategy", Json.String (Nra.strategy_to_string shape.Workload.strategy));
         ("reference", Json.String (Nra.strategy_to_string shape.Workload.reference));
         ("domains", Json.Int shape.Workload.domains);
         ( "buffer_frames",
           match shape.Workload.frames with Some f -> Json.Int f | None -> Json.Null );
         ("trace", Json.Bool !trace);
         ("seconds", Json.Float !seconds);
         ("setup_s_each", Json.List (List.map (fun s -> Json.Float s) setup_s));
         ("reference_s", Json.Float reference_s);
         ("attempted", Json.Int tally.Measure.attempted);
         ("failed", Json.Int failed);
         ("wrong", Json.Int tally.Measure.wrong);
         ("error_rate",
          Json.Float (float_of_int failed /. float_of_int (max 1 tally.Measure.attempted)));
         ("metrics", Json.Obj (List.map metric_json metrics));
       ]
      @ extra)
  in
  Json.write_file
    (Filename.concat results
       (Printf.sprintf "%s-seed%d-trace%d.json" wname seed
          (if !trace then 1 else 0)))
    report;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int tally.Measure.attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map metric_json metrics));
          ]));
  exit (if failed = 0 then 0 else 1)
