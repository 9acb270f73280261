type config = {
  rows_per_page : int;
  t_seq_ms : float;
  t_rand_ms : float;
  t_fetch_ms : float;
  cache_pages : int;
  page_size_kb : float;
}

(* t_fetch is calibrated from the paper's own numbers: its Query 1 run
   fetches a 165K-tuple intermediate result in ≈19 s of the reported
   elapsed time, i.e. ≈0.12 ms per tuple. *)
let default_config =
  {
    rows_per_page = 100;
    t_seq_ms = 0.1;
    t_rand_ms = 1.0;
    t_fetch_ms = 0.12;
    (* ~3% of a scale-0.05 database (≈5K pages), mirroring the paper's
       32 MB cache over 1 GB of data *)
    cache_pages = 160;
    (* the 2005 commodity default; --page-size-kb overrides it, so a
       memory budget given in MB (the paper's "32 MB buffer cache")
       converts to an exact frame count instead of a hard-coded one *)
    page_size_kb = 8.0;
  }

let current = ref default_config
let cache = ref (Lru.create ~capacity:default_config.cache_pages)
let hits = ref 0
let misses = ref 0
let config () = !current

let set_config c =
  current := c;
  cache := Lru.create ~capacity:c.cache_pages

type counters = {
  seq_pages : int;
  rand_pages : int;
  fetched_rows : int;
}

(* the live counters, bumped in place by every charge; [counters]
   takes a snapshot *)
let seq = ref 0
let rand = ref 0
let fetched = ref 0

(* Consumers above this module (the nra.storage buffer pool) register
   here so [reset] clears their residency and counters too: suites that
   measure "cold" charges per run call [reset] between runs and must
   get a cold pool as well as zeroed counters. *)
let reset_hooks : (unit -> unit) list ref = ref []
let on_reset f = reset_hooks := f :: !reset_hooks

let reset () =
  seq := 0;
  rand := 0;
  fetched := 0;
  Lru.clear !cache;
  hits := 0;
  misses := 0;
  List.iter (fun f -> f ()) !reset_hooks

let pages rows =
  let rpp = !current.rows_per_page in
  (rows + rpp - 1) / rpp

(* Per-task I/O ledgers: a stack of open ledgers that every charge also
   tallies into.  Auto's kill-and-fallback pushes one around the
   attempt; on a kill, [uncharge] subtracts exactly the attempt's own
   charges from the globals — no global snapshot, so other tasks'
   charges interleaved by the scheduler are untouched.  The stack is
   task-local state: the scheduler detaches it with the guard context
   ([save_task]/[restore_task]) at every context switch. *)

type ledger = {
  mutable l_seq : int;
  mutable l_rand : int;
  mutable l_fetched : int;
  mutable l_hits : int;
  mutable l_misses : int;
}

let ledgers : ledger list ref = ref []

(* a loop, not [List.iter]: a closure over the three amounts would be
   allocated on every charge made with a ledger open *)
let rec tally_into ls ~seq ~rand ~fetched =
  match ls with
  | [] -> ()
  | l :: rest ->
      l.l_seq <- l.l_seq + seq;
      l.l_rand <- l.l_rand + rand;
      l.l_fetched <- l.l_fetched + fetched;
      tally_into rest ~seq ~rand ~fetched

let tally ~seq ~rand ~fetched = tally_into !ledgers ~seq ~rand ~fetched

let push_ledger () =
  let l = { l_seq = 0; l_rand = 0; l_fetched = 0; l_hits = 0; l_misses = 0 } in
  ledgers := l :: !ledgers;
  l

let pop_ledger l =
  (* tolerant: drops down to and including [l], so an exception that
     unwound past a nested push cannot leave stale ledgers live *)
  let rec drop = function
    | [] -> []
    | x :: rest -> if x == l then rest else drop rest
  in
  ledgers := drop !ledgers

let uncharge l =
  seq := !seq - l.l_seq;
  rand := !rand - l.l_rand;
  fetched := !fetched - l.l_fetched;
  hits := !hits - l.l_hits;
  misses := !misses - l.l_misses;
  (* enclosing ledgers (a nested Auto attempt) drop them too, so an
     outer uncharge cannot subtract the same work twice *)
  List.iter
    (fun o ->
      o.l_seq <- o.l_seq - l.l_seq;
      o.l_rand <- o.l_rand - l.l_rand;
      o.l_fetched <- o.l_fetched - l.l_fetched;
      o.l_hits <- o.l_hits - l.l_hits;
      o.l_misses <- o.l_misses - l.l_misses)
    !ledgers

(* stale ledgers must not survive a world reset *)
let () = on_reset (fun () -> ledgers := [])

type task_io = ledger list

let empty_task = []

let save_task () =
  let s = !ledgers in
  ledgers := [];
  s

let restore_task s = ledgers := s

(* Fault.inject sits at the head of every charge function, before any
   counter or cache mutation, so a Fault.with_retries re-run never
   double-charges *)

let add_seq n =
  tally ~seq:n ~rand:0 ~fetched:0;
  seq := !seq + n

let add_rand n =
  tally ~seq:0 ~rand:n ~fetched:0;
  rand := !rand + n

let charge_scan_rows rows =
  Fault.inject "scan";
  add_seq (pages rows)

let charge_probe ~matches =
  Fault.inject "probe";
  add_rand (1 + matches)

let charge_random_pages n =
  Fault.inject "read";
  add_rand n

(* A fetched row's page is [Hashtbl.hash (table, row_id / rows_per_page)].
   A record of two fields hashes exactly like a pair (the hash reads the
   block's tag, size and fields), so one reused mutable record stands in
   for the pair and a fetch builds nothing. *)
type page_of = { mutable p_table : string; mutable p_page : int }

let page_of = { p_table = ""; p_page = 0 }

let charge_row_fetch ~table ~row_id =
  Fault.inject "fetch";
  page_of.p_table <- table;
  page_of.p_page <- row_id / !current.rows_per_page;
  let page = Hashtbl.hash page_of in
  if Lru.touch !cache page then begin
    incr hits;
    List.iter (fun l -> l.l_hits <- l.l_hits + 1) !ledgers
  end
  else begin
    incr misses;
    List.iter (fun l -> l.l_misses <- l.l_misses + 1) !ledgers;
    add_rand 1
  end

let cache_hits () = !hits
let cache_misses () = !misses

let charge_fetch_rows rows =
  Fault.inject "transfer";
  tally ~seq:0 ~rand:0 ~fetched:rows;
  fetched := !fetched + rows

(* Buffer-pool page traffic (nra.storage Bufpool) and WAL appends.
   All three are sequential-page charges: a page-in reads a spill
   partition (or a table extent) front to back, a writeback flushes one
   frame to its partition file, and the log is append-only.  Distinct
   fault sites keep the traffic classes tellable apart in fault traces
   and in the crash corpus. *)

let charge_page_in n =
  Fault.inject "page-in";
  add_seq n

let charge_page_out n =
  Fault.inject "page-out";
  add_seq n

let charge_wal_append ~pages:n =
  Fault.inject "wal";
  add_seq n

let counters () =
  { seq_pages = !seq; rand_pages = !rand; fetched_rows = !fetched }

let simulated_seconds () =
  let c = !current in
  (float_of_int !seq *. c.t_seq_ms
  +. (float_of_int !rand *. c.t_rand_ms)
  +. (float_of_int !fetched *. c.t_fetch_ms))
  /. 1000.0

(* The clock reading the guard and the scheduler take at every context
   switch and checkpoint.  A float returned across a module boundary is
   boxed, so this stores into a flat float record instead, with
   [simulated_seconds () *. 1000.0]'s arithmetic in the same order: the
   same bits, nothing allocated. *)
type mark = { mutable ms : float }

let sample_ms m =
  let c = !current in
  m.ms <-
    (float_of_int !seq *. c.t_seq_ms
    +. (float_of_int !rand *. c.t_rand_ms)
    +. (float_of_int !fetched *. c.t_fetch_ms))
    /. 1000.0 *. 1000.0
