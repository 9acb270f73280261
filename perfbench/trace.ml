(* The traced run: the per-layer split.

   The run first replays one pass through Nra_server.Server (exactly the
   untraced run's first pass) for the server-side counters.  It then
   replays the statements through the engine's public pipeline, one
   call per layer, alternating untraced and traced passes:

     Sql.Parser.parse_command        span sql.parse
     Planner.Analyze.analyze         span planner.analyze
     Nra.estimates_with_rewrites     span stats.estimate   (Auto only)
     Nra.rewrite_for                 span opt.rewrite      (NRA strategies)
     <executor>.run_where            span exec.where
       Nra_exec stats.join_seconds         algebra.join        (synthetic)
       Nra_exec stats.nest_select_seconds  nested.nest_select  (synthetic)
     Exec.Post.apply                 span exec.post
     Nra.run (writes)                span exec.command

   The benchmark sees the layers only from outside: spans are timed
   around those calls, and every span carries the deltas of the public
   counters (Iosim, Bufpool, Governor, Fault, Wal, Gc) across it.  The
   two executor timings are the executor's own counters, laid out
   back-to-back from the start of their exec.where span.  Auto's
   kill-and-fallback and the server's guard are not replayed (their
   effect is counted in the server pass).  Spans stay in memory and are
   written when the run ends. *)

open Workload
module Analyze = Nra.Planner.Analyze
module Cost = Nra.Stats.Cost
module Nx = Nra.Exec.Nra_exec

let now = Unix.gettimeofday

(* ---------- counters ---------- *)

type snap = {
  seq : int;
  rand : int;
  fetched : int;
  io_ms : float;
  bp : Nra.Bufpool.stats;
  gov_spilled : int;
  retried : int;
  wal : int;
  alloc : float;
  major : int;
}

let snap () =
  let g = Gc.quick_stat () and c = Nra.Iosim.counters () in
  {
    seq = c.Nra.Iosim.seq_pages;
    rand = c.Nra.Iosim.rand_pages;
    fetched = c.Nra.Iosim.fetched_rows;
    io_ms = Measure.io_ms ();
    bp = Nra.Bufpool.stats ();
    gov_spilled = (Nra.Governor.stats ()).Nra.Governor.spilled_stagings;
    retried = (Nra.Fault.stats ()).Nra.Fault.retried;
    wal = Nra.Wal.records ();
    alloc = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words;
    major = g.Gc.major_collections;
  }

let diff a b =
  let open Nra.Bufpool in
  {
    seq = a.seq - b.seq;
    rand = a.rand - b.rand;
    fetched = a.fetched - b.fetched;
    io_ms = a.io_ms -. b.io_ms;
    bp =
      {
        hits = a.bp.hits - b.bp.hits;
        misses = a.bp.misses - b.bp.misses;
        evictions = a.bp.evictions - b.bp.evictions;
        writebacks = a.bp.writebacks - b.bp.writebacks;
        spilled_partitions = a.bp.spilled_partitions - b.bp.spilled_partitions;
        spilled_pages = a.bp.spilled_pages - b.bp.spilled_pages;
      };
    gov_spilled = a.gov_spilled - b.gov_spilled;
    retried = a.retried - b.retried;
    wal = a.wal - b.wal;
    alloc = a.alloc -. b.alloc;
    major = a.major - b.major;
  }

(* ---------- spans ---------- *)

type span = {
  sid : int;
  parent : int;  (** 0 for a statement's root span *)
  stmt : int;
  name : string;
  t0 : float;
  t1 : float;
  delta : snap option;  (** [None] for synthetic spans *)
}

let duration s = s.t1 -. s.t0

type recorder = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable open_ : (int * float ref) list;
      (** open spans, innermost first, with the cursor synthetic
          children are laid out from *)
  mutable stmt : int;
}

let recorder () = { spans = []; next = 1; open_ = []; stmt = 0 }

(* what the pipeline calls at each layer boundary *)
type probe = {
  span : 'a. string -> (unit -> 'a) -> 'a;
  synthetic : string -> float -> unit;
}

let untraced = { span = (fun _ f -> f ()); synthetic = (fun _ _ -> ()) }

let traced r =
  let span name f =
    let sid = r.next in
    r.next <- sid + 1;
    let parent = match r.open_ with (p, _) :: _ -> p | [] -> 0 in
    let s0 = snap () in
    let t0 = now () in
    r.open_ <- (sid, ref t0) :: r.open_;
    let close () =
      let t1 = now () in
      let delta = Some (diff (snap ()) s0) in
      r.open_ <- List.tl r.open_;
      r.spans <- { sid; parent; stmt = r.stmt; name; t0; t1; delta } :: r.spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  in
  let synthetic name seconds =
    match r.open_ with
    | [] -> ()
    | (parent, cursor) :: _ ->
        let sid = r.next in
        r.next <- sid + 1;
        let t0 = !cursor in
        cursor := t0 +. seconds;
        r.spans <-
          { sid; parent; stmt = r.stmt; name; t0; t1 = t0 +. seconds; delta = None }
          :: r.spans
  in
  { span; synthetic }

(* ---------- the pipeline ---------- *)

let of_cost = function
  | Cost.Naive -> Nra.Naive
  | Cost.Classical -> Nra.Classical
  | Cost.Magic -> Nra.Magic
  | Cost.Nra_original -> Nra.Nra_original
  | Cost.Nra_optimized -> Nra.Nra_optimized
  | Cost.Nra_full -> Nra.Nra_full

let to_cost = function
  | Nra.Naive -> Some Cost.Naive
  | Nra.Classical -> Some Cost.Classical
  | Nra.Magic -> Some Cost.Magic
  | Nra.Nra_original -> Some Cost.Nra_original
  | Nra.Nra_optimized -> Some Cost.Nra_optimized
  | Nra.Nra_full -> Some Cost.Nra_full
  | Nra.Hybrid | Nra.Auto -> None

type run = {
  result : (Nra.exec_result, Nra.Exec_error.t) result;
  analyzed : Analyze.t option;
  strategy : Nra.strategy option;  (** the executor a read ran on *)
  estimates : Cost.estimate list;  (** Auto's, cheapest first *)
  nra : Nx.stats option;
  fired : int;  (** rewrite rules that fired *)
}

let no_run result =
  { result; analyzed = None; strategy = None; estimates = []; nra = None; fired = 0 }

let run_read probe shape cat q =
  let t = probe.span "planner.analyze" (fun () -> Analyze.analyze cat q) in
  let estimates =
    if shape.Workload.strategy = Nra.Auto then
      probe.span "stats.estimate" (fun () ->
          try Nra.estimates_with_rewrites cat t with _ -> [])
    else []
  in
  (* the facade's pick with no budget installed: the cheapest estimate,
     Nra_optimized when estimation failed *)
  let strategy =
    match (shape.Workload.strategy, estimates) with
    | Nra.Auto, e :: _ -> of_cost e.Cost.strategy
    | Nra.Auto, [] -> Nra.Nra_optimized
    | s, _ -> s
  in
  let base = Nra.nra_base_options strategy in
  let rewrite =
    match base with
    | Some options -> probe.span "opt.rewrite" (fun () -> Nra.rewrite_for cat t options)
    | None -> None
  in
  let rel, nra =
    probe.span "exec.where" (fun () ->
        match (base, strategy) with
        | Some options, _ ->
            let directives = Option.map (fun r -> r.Nra.Opt.Rewrite.dirs) rewrite in
            let rel, st = Nx.run_where ~options ?directives cat t in
            probe.synthetic "algebra.join" st.Nx.join_seconds;
            probe.synthetic "nested.nest_select" st.Nx.nest_select_seconds;
            (rel, Some st)
        | None, Nra.Classical -> (Nra.Exec.Classical.run_where cat t, None)
        | None, Nra.Naive -> (Nra.Exec.Naive.run_where cat t, None)
        | None, Nra.Magic -> (Nra.Exec.Magic.run_where cat t, None)
        | None, _ -> failwith "no executor for this strategy")
  in
  let out = probe.span "exec.post" (fun () -> Nra.Exec.Post.apply t.Analyze.output rel) in
  let fired =
    match rewrite with
    | None -> 0
    | Some r ->
        List.length
          (List.filter
             (fun e -> e.Nra.Opt.Rewrite.verdict = Nra.Opt.Rewrite.Fired)
             r.Nra.Opt.Rewrite.trace)
  in
  {
    result = Ok (Nra.Rows out);
    analyzed = Some t;
    strategy = Some strategy;
    estimates;
    nra;
    fired;
  }

let run_statement probe shape cat s =
  probe.span "stmt" (fun () ->
      match probe.span "sql.parse" (fun () -> Nra.Sql.Parser.parse_command s.sql) with
      | Nra.Sql.Ast.Cmd_query (Nra.Sql.Ast.Select q) -> (
          try run_read probe shape cat q
          with e -> no_run (Error (Nra.Exec_error.Runtime (Printexc.to_string e))))
      | _ ->
          no_run
            (probe.span "exec.command" (fun () ->
                 Nra.run ~strategy:shape.Workload.strategy cat s.sql)))

(* ---------- replay passes ---------- *)

type record = {
  st : stmt;
  run : run;
  spans : span list;  (** this statement's, root first *)
  est_ms : float option;  (** the executed plan's estimated cost *)
  high_water : int;  (** governor high-water mark after the statement *)
}

(* estimated cost_ms of the plan that ran: Auto's pick, or (fixed
   strategies) the cost model's price for that strategy, taken outside
   the spans *)
let executed_estimate cat run =
  match (run.strategy, run.estimates, run.analyzed) with
  | Some _, e :: _, _ -> Some e.Cost.cost_ms
  | Some s, [], Some t -> (
      match to_cost s with
      | Some c -> ( try Some (Cost.estimate cat t c).Cost.cost_ms with _ -> None)
      | None -> None)
  | _ -> None

(* One pass of the statement sequence through the pipeline; [walls]
   pairs each statement id with its wall time, probes included. *)
let replay_pass ?recorder env tally ~deadline =
  (match env.shape.name with
  | Paper_mix_rw ->
      reset_side env.cat;
      Nra.Iosim.reset ()
  | Ja_scale | Ja_spill -> ());
  let probe = match recorder with Some r -> traced r | None -> untraced in
  let records = ref [] and walls = ref [] in
  (try
     Array.iter
       (fun s ->
         (match deadline with Some d when now () >= d -> raise Exit | _ -> ());
         let first_sid =
           match recorder with
           | Some r ->
               r.stmt <- s.id;
               r.next
           | None -> 0
         in
         let t0 = now () in
         let run =
           try run_statement probe env.shape env.cat s
           with e -> no_run (Error (Nra.Exec_error.Runtime (Printexc.to_string e)))
         in
         walls := (s.id, now () -. t0) :: !walls;
         Measure.note tally s run.result;
         match recorder with
         | None -> ()
         | Some r ->
             let rec mine = function
               | sp :: rest when sp.sid >= first_sid -> sp :: mine rest
               | _ -> []
             in
             let spans = List.sort (fun a b -> compare a.sid b.sid) (mine r.spans) in
             records :=
               {
                 st = s;
                 run;
                 spans;
                 est_ms = executed_estimate env.cat run;
                 high_water = (Nra.Governor.stats ()).Nra.Governor.high_water_bytes;
               }
               :: !records)
       env.stmts
   with Exit -> ());
  (List.rev !records, !walls)

type result = {
  server_pass : Measure.pass;
  tally : Measure.tally;
  pass_rates : float list;  (** throughput of each whole server pass *)
  recorder : recorder;
  det : record list;  (** the first traced pass: deterministic counters *)
  traced : record list;  (** every traced statement *)
  untraced_walls : (int * float) list;
  traced_walls : (int * float) list;
}

(* Half the time on server passes (the untraced run's measurement, for
   the server counters and host times), then alternating untraced and
   traced replay passes until [seconds] have passed (at least one of
   each). *)
let run env ~seconds =
  let server_pass, tally, pass_rates = Measure.measure env ~seconds:(seconds /. 2.0) in
  let deadline = now () +. (seconds /. 2.0) in
  let r = recorder () in
  let det = ref [] and traced = ref [] and uw = ref [] and tw = ref [] in
  let rec loop first =
    if first || now () < deadline then begin
      let d = if first then None else Some deadline in
      let _, w = replay_pass env tally ~deadline:d in
      uw := w @ !uw;
      if first || now () < deadline then begin
        let recs, w = replay_pass ~recorder:r env tally ~deadline:d in
        if first then det := recs;
        traced := recs @ !traced;
        tw := w @ !tw
      end;
      loop false
    end
  in
  loop true;
  {
    server_pass;
    tally;
    pass_rates;
    recorder = r;
    det = !det;
    traced = !traced;
    untraced_walls = !uw;
    traced_walls = !tw;
  }

(* ---------- per-layer metrics ---------- *)

let root r = List.hd r.spans
let children r sp = List.filter (fun c -> c.parent = sp.sid) r.spans

let self_time r sp =
  Float.max 0.0
    (duration sp -. List.fold_left (fun a c -> a +. duration c) 0.0 (children r sp))

let delta sp = Option.get sp.delta

(* sum of [f] over the spans called [names] of one statement *)
let over names f r =
  List.fold_left
    (fun a sp -> if List.mem sp.name names then a +. f r sp else a)
    0.0 r.spans

let per_stmt recs f =
  match recs with
  | [] -> 0.0
  | _ ->
      List.fold_left (fun a r -> a +. f r) 0.0 recs /. float_of_int (List.length recs)

let exec_spans = [ "exec.where"; "exec.post"; "exec.command" ]

let measured_sim_ms r = over exec_spans (fun _ sp -> (delta sp).io_ms) r

let qerror r =
  match r.est_ms with
  | None -> None
  | Some e ->
      let e = Float.max e 1e-3 and m = Float.max (measured_sim_ms r) 1e-3 in
      Some (Float.max (e /. m) (m /. e))

(* mean wall time of the statements both kinds of pass ran *)
let overhead_pct res =
  let by_id l =
    let h = Hashtbl.create 64 in
    List.iter
      (fun (id, w) ->
        let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt h id) in
        Hashtbl.replace h id (s +. w, n + 1))
      l;
    h
  in
  let u = by_id res.untraced_walls and t = by_id res.traced_walls in
  let su = ref 0.0 and st = ref 0.0 in
  Hashtbl.iter
    (fun id (ts, tn) ->
      match Hashtbl.find_opt u id with
      | Some (us, un) ->
          su := !su +. (us /. float_of_int un);
          st := !st +. (ts /. float_of_int tn)
      | None -> ())
    t;
  if !su > 0.0 then 100.0 *. ((!st /. !su) -. 1.0) else 0.0

let per_layer res =
  let tr = res.traced and det = res.det in
  let ms x = x *. 1000.0 in
  let self names = ms (per_stmt tr (over names self_time)) in
  let total names = ms (per_stmt tr (over names (fun _ sp -> duration sp))) in
  let det_mean f = per_stmt det (fun r -> float_of_int (f (delta (root r)))) in
  let bp_total f =
    List.fold_left (fun a r -> a + f (delta (root r)).bp) 0 det
  in
  let hits = bp_total (fun b -> b.Nra.Bufpool.hits)
  and misses = bp_total (fun b -> b.Nra.Bufpool.misses) in
  let qerrors = List.filter_map qerror det in
  let nra_stats f = List.filter_map (fun r -> Option.map f r.run.nra) in
  let first = res.server_pass in
  let c = first.Measure.server in
  let lookups = c.Measure.hits + c.Measure.misses in
  let waits =
    match List.concat_map (fun p -> p.Measure.queue_waits) first.Measure.phases with
    | [] -> 0.0
    | w -> Measure.percentile 0.9 w
  in
  let layer_self =
    per_stmt tr (fun r ->
        List.fold_left
          (fun a sp -> if sp.parent = 0 then a else a +. self_time r sp)
          0.0 r.spans)
  in
  let root_time = per_stmt tr (fun r -> duration (root r)) in
  [
    ("sql.parse_ms", "ms", self [ "sql.parse" ]);
    ("planner.analyze_ms", "ms", self [ "planner.analyze" ]);
    ("stats.estimate_ms", "ms", self [ "stats.estimate" ]);
    ("opt.rewrite_ms", "ms", self [ "opt.rewrite" ]);
    ("opt.rules_fired", "rules/stmt", per_stmt det (fun r -> float_of_int r.run.fired));
    ("stats.qerror_p50", "ratio", if qerrors = [] then 0.0 else Measure.percentile 0.5 qerrors);
    ("stats.qerror_max", "ratio", List.fold_left Float.max 0.0 qerrors);
    ("guard.auto_fallbacks", "count", float_of_int c.Measure.fallbacks);
    ( "server.plan_cache.hit_rate",
      "ratio",
      if lookups = 0 then 0.0
      else float_of_int c.Measure.hits /. float_of_int lookups );
    ("server.plan_cache.invalidations", "count", float_of_int c.Measure.invalidations);
    ("server.queue_wait_ms_p90", "ms", waits);
    ("server.admission.rejected", "count", float_of_int c.Measure.rejected);
    ("server.admission.timed_out", "count", float_of_int c.Measure.timed_out);
    ("server.scheduler.slices", "count", float_of_int c.Measure.slices);
    ("server.scheduler.yields", "count", float_of_int c.Measure.yields);
    ("server.max_qps_at_slo", "stmt/s", Measure.max_qps_at_slo first);
    ( "server.error_rate",
      "ratio",
      float_of_int (Measure.failed res.tally)
      /. float_of_int (max 1 res.tally.Measure.attempted) );
    ("storage.wal.records", "records/stmt", det_mean (fun d -> d.wal));
    ("exec.where_ms", "ms", total [ "exec.where" ]);
    ("exec.scan_select_ms", "ms", self [ "exec.where" ]);
    ("exec.post_ms", "ms", self [ "exec.post" ]);
    ("algebra.join_ms", "ms", total [ "algebra.join" ]);
    ("nested.nest_select_ms", "ms", total [ "nested.nest_select" ]);
    ( "exec.peak_intermediate_rows",
      "rows",
      float_of_int
        (List.fold_left max 0 (nra_stats (fun s -> s.Nx.peak_intermediate_rows) det)) );
    ( "exec.intermediate_rows",
      "rows/stmt",
      per_stmt det (fun r ->
          match r.run.nra with
          | Some s -> float_of_int s.Nx.total_intermediate_rows
          | None -> 0.0) );
    ( "exec.alloc_mwords",
      "Mwords/stmt",
      per_stmt tr (over exec_spans (fun _ sp -> (delta sp).alloc)) /. 1e6 );
    ( "gc.major_collections",
      "count/stmt",
      per_stmt tr (fun r -> float_of_int (delta (root r)).major) );
    ("storage.iosim.seq_pages", "pages/stmt", det_mean (fun d -> d.seq));
    ("storage.iosim.rand_pages", "pages/stmt", det_mean (fun d -> d.rand));
    ("storage.iosim.fetched_rows", "rows/stmt", det_mean (fun d -> d.fetched));
    ( "storage.bufpool.hit_rate",
      "ratio",
      if hits + misses = 0 then 0.0
      else float_of_int hits /. float_of_int (hits + misses) );
    ("storage.bufpool.misses", "count/stmt", det_mean (fun d -> d.bp.Nra.Bufpool.misses));
    ("storage.bufpool.evictions", "count/stmt", det_mean (fun d -> d.bp.Nra.Bufpool.evictions));
    ("storage.bufpool.writebacks", "count/stmt", det_mean (fun d -> d.bp.Nra.Bufpool.writebacks));
    ( "storage.bufpool.spilled_pages",
      "pages/stmt",
      det_mean (fun d -> d.bp.Nra.Bufpool.spilled_pages) );
    ( "storage.governor.high_water_bytes",
      "bytes",
      float_of_int (List.fold_left (fun a r -> max a r.high_water) 0 det) );
    ("storage.governor.spilled_stagings", "count/stmt", det_mean (fun d -> d.gov_spilled));
    ("storage.fault.retried", "count/stmt", det_mean (fun d -> d.retried));
    ("trace.coverage", "ratio", if root_time > 0.0 then layer_self /. root_time else 0.0);
    ("trace.overhead_pct", "%", overhead_pct res);
  ]
  @ Measure.host ~pass_rates:res.pass_rates res.tally

(* Auto's q-error table (fixed strategies: the executed strategy's own
   estimate): every estimate, the pick, what the pick measured on the
   simulated clock, and the ratio. *)
let qerror_table res =
  Json.List
    (List.filter_map
       (fun r ->
         match (r.run.strategy, r.est_ms, qerror r) with
         | Some s, Some e, Some q ->
             Some
               (Json.Obj
                  [
                    ("id", Json.Int r.st.id);
                    ("family", Json.String r.st.family);
                    ( "estimates_ms",
                      Json.Obj
                        (List.map
                           (fun (x : Cost.estimate) ->
                             (Cost.to_string x.Cost.strategy, Json.Float x.Cost.cost_ms))
                           r.run.estimates) );
                    ("pick", Json.String (Nra.strategy_to_string s));
                    ("pick_estimate_ms", Json.Float e);
                    ("pick_measured_sim_ms", Json.Float (measured_sim_ms r));
                    ("qerror", Json.Float q);
                  ])
         | _ -> None)
       res.det)

(* Counter fields of the first traced pass: identical for a given seed
   and scale. *)
let deterministic res =
  Json.List
    (List.map
       (fun r ->
         let d = delta (root r) in
         Json.Obj
           [
             ("id", Json.Int r.st.id);
             ( "pick",
               Json.String
                 (match r.run.strategy with
                 | Some s -> Nra.strategy_to_string s
                 | None -> "-") );
             ("result", Json.String (Measure.result_digest r.run.result));
             ("sim_ms", Json.Float (measured_sim_ms r));
             ("seq_pages", Json.Int d.seq);
             ("rand_pages", Json.Int d.rand);
             ("fetched_rows", Json.Int d.fetched);
             ("bufpool_hits", Json.Int d.bp.Nra.Bufpool.hits);
             ("bufpool_misses", Json.Int d.bp.Nra.Bufpool.misses);
             ("bufpool_spilled_pages", Json.Int d.bp.Nra.Bufpool.spilled_pages);
             ("governor_spilled_stagings", Json.Int d.gov_spilled);
             ("governor_high_water", Json.Int r.high_water);
             ("wal_records", Json.Int d.wal);
             ("rules_fired", Json.Int r.run.fired);
           ])
       res.det)

let write_spans path (r : recorder) =
  let oc = open_out path in
  List.iter
    (fun sp ->
      let counters =
        match sp.delta with
        | None -> []
        | Some d ->
            [
              ("sim_io_ms", Json.Float d.io_ms);
              ("seq_pages", Json.Int d.seq);
              ("rand_pages", Json.Int d.rand);
              ("fetched_rows", Json.Int d.fetched);
              ("bufpool_misses", Json.Int d.bp.Nra.Bufpool.misses);
              ("wal_records", Json.Int d.wal);
              ("alloc_words", Json.Float d.alloc);
            ]
      in
      output_string oc
        (Json.to_string
           (Json.Obj
              ([
                 ("stmt", Json.Int sp.stmt);
                 ("span", Json.Int sp.sid);
                 ("parent", Json.Int sp.parent);
                 ("name", Json.String sp.name);
                 ("start", Json.Float sp.t0);
                 ("end", Json.Float sp.t1);
                 ("synthetic", Json.Bool (sp.delta = None));
               ]
              @ counters)));
      output_char oc '\n')
    (List.rev r.spans);
  close_out oc

