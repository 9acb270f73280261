(* The untraced run: every statement goes through Nra_server.Server, and
   the end-to-end metrics come from what the server hands back.

   ja_* are a closed loop: one session on the serial path
   (Server.exec), the next statement issued when the previous one
   returned.  paper_mix_rw replays its pass once on the serial path (for
   host latency per statement) and then as an open loop on the virtual
   clock at each of [rates], 8 sessions sharing 2 execution slots, with
   arrivals on a fixed schedule, one every 1/rate seconds; each phase
   starts from a fresh server, a
   reset side table and reset simulated I/O, so every pass of a run is
   identical on the virtual clock. *)

open Workload
module Server = Nra_server.Server
module Plan_cache = Nra_server.Plan_cache
module Admission = Nra_server.Admission
module Scheduler = Nra_server.Scheduler

let now = Unix.gettimeofday

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let io_ms () = Nra.Iosim.simulated_seconds () *. 1000.0

let percentile p l =
  match List.sort compare l with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let mean l =
  match l with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* ---------- paper_mix_rw's open loop ---------- *)

let sessions = 8
let slots = 2
let rates = [ 6.0; 12.0; 18.0; 24.0 ]

(* the rate sim_ms_p50/p90 are reported at *)
let nominal_rate = 6.0

(* the latency limit max_qps_at_slo holds sim_ms_p90 to *)
let slo_ms = 400.0

(* ---------- tallies ---------- *)

type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable errors : int;
  mutable wrong : int;
  mutable host_s : float;  (** host seconds inside server calls *)
  mutable alloc_words : float;  (** allocated inside server calls *)
  mutable host_ms : float list;  (** per serial-path statement *)
  per_stmt_host : (int, float list) Hashtbl.t;
}

let tally () =
  {
    attempted = 0;
    ok = 0;
    errors = 0;
    wrong = 0;
    host_s = 0.0;
    alloc_words = 0.0;
    host_ms = [];
    per_stmt_host = Hashtbl.create 64;
  }

let failed t = t.errors + t.wrong
let reported = ref 0

let note t s r =
  t.attempted <- t.attempted + 1;
  let outcome = check s r in
  (match outcome with
  | `Ok -> t.ok <- t.ok + 1
  | `Wrong -> t.wrong <- t.wrong + 1
  | `Error -> t.errors <- t.errors + 1);
  if outcome <> `Ok && !reported < 5 then begin
    incr reported;
    Printf.eprintf "statement %d (%s) %s:\n  %s\n%!" s.id s.family
      (match r with
      | Error e -> "failed: " ^ Nra.Exec_error.to_string e
      | Ok _ -> "returned a result that differs from the reference")
      s.sql
  end

let result_digest (r : (Nra.exec_result, Nra.Exec_error.t) result) =
  match r with
  | Ok (Nra.Rows rel) ->
      let n, h = digest rel in
      Printf.sprintf "rows %d %x" n h
  | Ok (Nra.Count n) -> Printf.sprintf "count %d" n
  | Ok (Nra.Done m) -> "done " ^ m
  | Error e -> "error " ^ Nra.Exec_error.to_string e

(* ---------- server counters ---------- *)

type counts = {
  hits : int;
  misses : int;
  invalidations : int;
  rejected : int;
  timed_out : int;
  slices : int;
  yields : int;
  fallbacks : int;
}

let counts server =
  let c = Plan_cache.stats (Server.cache server) in
  let a = Server.admission_stats server in
  let s = Scheduler.stats (Server.scheduler server) in
  {
    hits = c.Plan_cache.hits;
    misses = c.Plan_cache.misses;
    invalidations = c.Plan_cache.invalidations;
    rejected = a.Admission.rejected_full;
    timed_out = a.Admission.timed_out;
    slices = s.Scheduler.slices;
    yields = s.Scheduler.yields;
    fallbacks = (Nra.Guard.events ()).Nra.Guard.auto_fallbacks;
  }

let combine f a b =
  {
    hits = f a.hits b.hits;
    misses = f a.misses b.misses;
    invalidations = f a.invalidations b.invalidations;
    rejected = f a.rejected b.rejected;
    timed_out = f a.timed_out b.timed_out;
    slices = f a.slices b.slices;
    yields = f a.yields b.yields;
    fallbacks = f a.fallbacks b.fallbacks;
  }

let counts_json c =
  Json.Obj
    [
      ("plan_cache_hits", Json.Int c.hits);
      ("plan_cache_misses", Json.Int c.misses);
      ("plan_cache_invalidations", Json.Int c.invalidations);
      ("admission_rejected", Json.Int c.rejected);
      ("admission_timed_out", Json.Int c.timed_out);
      ("scheduler_slices", Json.Int c.slices);
      ("scheduler_yields", Json.Int c.yields);
      ("auto_fallbacks", Json.Int c.fallbacks);
    ]

(* ---------- phases ---------- *)

type serial = {
  sim_ms : float array;  (** virtual-clock latency per statement *)
  io_ms : float array;  (** simulated I/O per statement *)
  digests : string array;
}

type open_phase = {
  rate : float;
  latencies : float list;  (** Server.latency_ms, completion order *)
  queue_waits : float list;
  in_system_mid : int;  (** statements in the server at half the arrivals *)
  in_system_end : int;  (** … and at the last arrival *)
  meets_slo : bool;
}

type pass = { serial : serial; phases : open_phase list; server : counts }

(* Server.exec every statement in order; after the first pass a
   [deadline] may cut the pass short *)
let serial_phase t server session stmts ~deadline =
  let n = Array.length stmts in
  let sim = Array.make n nan and io = Array.make n nan in
  let digests = Array.make n "" in
  (try
     Array.iteri
       (fun i s ->
         (match deadline with
         | Some d when now () >= d -> raise Exit
         | _ -> ());
         let a0 = alloc_words () and io0 = io_ms () in
         let v0 = Server.now server in
         let t0 = now () in
         let r = Server.exec server session s.sql in
         let t1 = now () in
         t.alloc_words <- t.alloc_words +. (alloc_words () -. a0);
         t.host_s <- t.host_s +. (t1 -. t0);
         let ms = (t1 -. t0) *. 1000.0 in
         t.host_ms <- ms :: t.host_ms;
         Hashtbl.replace t.per_stmt_host s.id
           (ms :: Option.value ~default:[] (Hashtbl.find_opt t.per_stmt_host s.id));
         sim.(i) <- Server.now server -. v0;
         io.(i) <- io_ms () -. io0;
         if deadline = None then digests.(i) <- result_digest r;
         note t s r)
       stmts
   with Exit -> ());
  { sim_ms = sim; io_ms = io; digests }

(* a fixed schedule: one arrival every 1/rate seconds *)
let arrivals ~rate n = Array.init n (fun i -> float_of_int i *. 1000.0 /. rate)

let fresh_server env ~slots =
  reset_side env.cat;
  Nra.Iosim.reset ();
  let server = Server.create ~config:(server_config env.shape ~slots) env.cat in
  server

let open_loop_phase t env ~rate =
  let server = fresh_server env ~slots in
  let ss =
    Array.init sessions (fun i ->
        Server.session server ~label:(Printf.sprintf "client-%d" i) ())
  in
  let by_sql = Hashtbl.create 256 in
  Array.iter (fun s -> Hashtbl.replace by_sql s.sql s) env.stmts;
  let at = arrivals ~rate (Array.length env.stmts) in
  let outcomes = ref [] in
  let push l = outcomes := List.rev_append l !outcomes in
  let a0 = alloc_words () and t0 = now () in
  Array.iteri
    (fun i s ->
      (match Server.submit server ~at:at.(i) ss.(i mod sessions) s.sql with
      | `Done o -> push [ o ]
      | `Running _ | `Queued -> ());
      push (Server.drain server))
    env.stmts;
  push (Server.finish server);
  t.host_s <- t.host_s +. (now () -. t0);
  t.alloc_words <- t.alloc_words +. (alloc_words () -. a0);
  let outcomes = List.rev !outcomes in
  List.iter (fun (o : Server.outcome) -> note t (Hashtbl.find by_sql o.sql) o.result)
    outcomes;
  (* a statement without an outcome never completed *)
  let missing = Array.length env.stmts - List.length outcomes in
  t.attempted <- t.attempted + missing;
  t.errors <- t.errors + missing;
  let in_system time =
    let arrived = Array.fold_left (fun n a -> if a <= time then n + 1 else n) 0 at in
    let finished =
      List.fold_left
        (fun n (o : Server.outcome) -> if o.finished_at <= time then n + 1 else n)
        0 outcomes
    in
    arrived - finished
  in
  let last = at.(Array.length at - 1) in
  let latencies = List.map Server.latency_ms outcomes in
  let mid = in_system (last /. 2.0) and fin = in_system last in
  ( {
      rate;
      latencies;
      queue_waits =
        List.map
          (fun (o : Server.outcome) ->
            Option.value ~default:o.finished_at o.started_at -. o.submitted_at)
          outcomes;
      in_system_mid = mid;
      in_system_end = fin;
      (* the backlog grows when the server holds clearly more statements
         at the last arrival than halfway through *)
      meets_slo = percentile 0.9 latencies <= slo_ms && fin <= mid + (2 * slots);
    },
    counts server )

(* One pass over the statement sequence.  [deadline] is [None] on the
   first pass, which always runs whole: its virtual-clock and counter
   figures are the run's deterministic fields. *)
let run_pass t env ~deadline =
  match env.shape.name with
  | Ja_scale | Ja_spill ->
      let c0 = counts env.server in
      let serial = serial_phase t env.server env.session env.stmts ~deadline in
      { serial; phases = []; server = combine ( - ) (counts env.server) c0 }
  | Paper_mix_rw ->
      let fb0 = (Nra.Guard.events ()).Nra.Guard.auto_fallbacks in
      let server = fresh_server env ~slots:1 in
      let session = Server.session server ~label:"serial" () in
      let serial = serial_phase t server session env.stmts ~deadline in
      let total = ref { (counts server) with fallbacks = 0 } in
      let phases =
        List.filter_map
          (fun rate ->
            match deadline with
            | Some d when now () >= d -> None
            | _ ->
                let p, c = open_loop_phase t env ~rate in
                total := combine ( + ) !total { c with fallbacks = 0 };
                Some p)
          rates
      in
      let fallbacks = (Nra.Guard.events ()).Nra.Guard.auto_fallbacks - fb0 in
      { serial; phases; server = { !total with fallbacks } }

let pass_statements env =
  Array.length env.stmts
  * match env.shape.name with
    | Paper_mix_rw -> 1 + List.length rates
    | Ja_scale | Ja_spill -> 1

(* Passes until [seconds] have passed; returns the first pass and the
   throughput of every pass that ran whole. *)
let measure env ~seconds =
  let t = tally () in
  let deadline = now () +. seconds in
  let pass_rates = ref [] in
  let pass deadline =
    let ok0 = t.ok and h0 = t.host_s and n0 = t.attempted in
    let p = run_pass t env ~deadline in
    if t.attempted - n0 = pass_statements env then
      pass_rates := (float_of_int (t.ok - ok0) /. (t.host_s -. h0)) :: !pass_rates;
    p
  in
  let first = pass None in
  while now () < deadline do
    ignore (pass (Some deadline))
  done;
  (first, t, !pass_rates)

(* ---------- end-to-end metrics ---------- *)

let nominal_phase first =
  List.find_opt (fun p -> p.rate = nominal_rate) first.phases

(* virtual-clock latency: the serial path's on ja_*, the nominal-rate
   open loop's on paper_mix_rw *)
let sim_latencies first =
  match nominal_phase first with
  | Some p -> p.latencies
  | None -> Array.to_list first.serial.sim_ms

let max_qps_at_slo first =
  List.fold_left
    (fun acc p -> if p.meets_slo then Float.max acc p.rate else acc)
    0.0 first.phases

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Gated: set-up time plus fields that repeat exactly for a seed. *)
let end_to_end ~setup_s first t =
  let sim = sim_latencies first in
  [
    ("setup_s", "s", median setup_s);
    ("sim_ms_p50", "ms", percentile 0.5 sim);
    ("sim_ms_p90", "ms", percentile 0.9 sim);
    ("sim_io_ms_mean", "ms", mean (Array.to_list first.serial.io_ms));
    ( "alloc_mwords_per_stmt",
      "Mwords",
      t.alloc_words /. 1e6 /. float_of_int (max 1 t.attempted) );
    ("peak_heap_mb", "MB", peak_heap_mb ());
  ]

(* Host wall clock, reported but not gated: on a shared host it drifts
   by 10-25 % between runs of the same seed minutes apart. *)
let host ~pass_rates t =
  [
    ("throughput_stmt_per_s", "stmt/s", median pass_rates);
    ("host_ms_p50", "ms", percentile 0.5 t.host_ms);
    ("host_ms_p90", "ms", percentile 0.9 t.host_ms);
  ]

let phase_json p =
  Json.Obj
    [
      ("rate_stmt_per_s", Json.Float p.rate);
      ("statements", Json.Int (List.length p.latencies));
      ("sim_ms_p50", Json.Float (percentile 0.5 p.latencies));
      ("sim_ms_p90", Json.Float (percentile 0.9 p.latencies));
      ("queue_wait_ms_p90", Json.Float (percentile 0.9 p.queue_waits));
      ("in_system_mid", Json.Int p.in_system_mid);
      ("in_system_end", Json.Int p.in_system_end);
      ("meets_slo", Json.Bool p.meets_slo);
    ]

(* Fields that repeat exactly for a given seed and scale. *)
let deterministic env first =
  let floats a = Json.List (Array.to_list (Array.map (fun f -> Json.Float f) a)) in
  Json.Obj
    [
      ( "statements",
        Json.List (Array.to_list (Array.map (fun s -> Json.String s.sql) env.stmts)) );
      ( "digests",
        Json.List (Array.to_list (Array.map (fun d -> Json.String d) first.serial.digests)) );
      ("serial_sim_ms", floats first.serial.sim_ms);
      ("serial_io_ms", floats first.serial.io_ms);
      ( "open_loop",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("phase", phase_json p);
                   ("latencies", Json.List (List.map (fun f -> Json.Float f) p.latencies));
                 ])
             first.phases) );
      ("server", counts_json first.server);
    ]

(* The NestGPU comparison as data, with no claim attached: NestGPU (a
   GPU engine for nested queries) reports 183 s for
   S.a IN (SELECT MAX(R.a) FROM R WHERE S.c = R.c) at 4 M outer x 1 M
   inner rows; next to it, this engine's rows and host seconds per JA
   statement, its scale and its peak heap. *)
let nestgpu_table env t =
  let inner = Nra.Table.cardinality (Nra.Catalog.table env.cat "lineitem") in
  Json.Obj
    [
      ( "nestgpu_reported",
        Json.Obj
          [
            ("outer_rows", Json.Int 4_000_000);
            ("inner_rows", Json.Int 1_000_000);
            ("seconds", Json.Float 183.0);
          ] );
      ("scale", Json.Float env.shape.scale);
      ("peak_heap_mb", Json.Float (peak_heap_mb ()));
      ( "statements",
        Json.List
          (Array.to_list env.stmts
          |> List.map (fun s ->
                 let host =
                   Option.value ~default:[] (Hashtbl.find_opt t.per_stmt_host s.id)
                 in
                 Json.Obj
                   [
                     ("id", Json.Int s.id);
                     ("link", Json.String s.family);
                     ("outer_rows", Json.Int s.outer_rows);
                     ("inner_rows", Json.Int inner);
                     ("host_s_median", Json.Float (median host /. 1000.0));
                     ("runs", Json.Int (List.length host));
                   ])) );
    ]
