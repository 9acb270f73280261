(* The benchmark's self-check, at a tiny scale: two runs of a workload
   with one seed produce identical deterministic fields (virtual-clock
   latencies, simulated I/O, buffer-pool and governor counters, Auto's
   picks and estimates, result digests), every statement matches its
   reference, another seed draws other statements, and each workload
   loads the layer it was chosen for. *)

open Perfbench

let scale = 0.002

let run name ~seed =
  let env, _ = Workload.setup (Workload.shape ~scale name) ~seed ~setups:1 in
  Workload.compute_references env;
  let res = Trace.run env ~seconds:0.0 in
  Alcotest.(check int) "failed statements" 0 (Measure.failed res.Trace.tally);
  let det =
    Json.to_string
      (Json.Obj
         [
           ("server_pass", Measure.deterministic env res.Trace.server_pass);
           ("trace", Trace.deterministic res);
           ("qerror", Trace.qerror_table res);
         ])
  in
  (det, res)

let metric res name =
  match List.find_opt (fun (n, _, _) -> n = name) (Trace.per_layer res) with
  | Some (_, _, v) -> v
  | None -> Alcotest.failf "no metric %s" name

let statements name ~seed =
  Array.map
    (fun s -> s.Workload.sql)
    (Workload.statements (Workload.shape ~scale name) ~seed)

let deterministic name () =
  let a, res = run name ~seed:7 in
  let b, _ = run name ~seed:7 in
  Alcotest.(check string) "deterministic fields" a b;
  Alcotest.(check bool)
    "another seed draws other statements" false
    (statements name ~seed:7 = statements name ~seed:8);
  match name with
  | Workload.Ja_scale ->
      Alcotest.(check (float 0.0)) "no buffer-pool traffic" 0.0
        (metric res "storage.bufpool.misses")
  | Workload.Ja_spill ->
      Alcotest.(check bool) "buffer pool loaded" true
        (metric res "storage.bufpool.misses" > 0.0
        && metric res "storage.bufpool.spilled_pages" > 0.0)
  | Workload.Paper_mix_rw ->
      let h = metric res "server.plan_cache.hit_rate" in
      Alcotest.(check bool) "plan cache hits and misses" true (h > 0.0 && h < 1.0);
      Alcotest.(check bool) "plan cache invalidated" true
        (metric res "server.plan_cache.invalidations" > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "self-check",
        List.map
          (fun (n, w) -> Alcotest.test_case n `Quick (deterministic w))
          Workload.names );
    ]
