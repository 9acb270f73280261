(** Disk-I/O cost simulation.

    The paper's experiments ran on a 2005-era server: TPC-H SF 1 (1 GB)
    on a single SCSI disk with a 32 MB buffer cache, where the dominant
    costs are page I/O — sequential for scans and hash joins, random for
    index descents and row fetches by rowid — plus, for the nested
    relational approach as implemented there (stored procedures), the
    per-tuple overhead of fetching the intermediate result out of the
    SQL engine.  An in-memory OCaml engine inverts those ratios, so the
    executors {e charge} their accesses here and the benchmarks report a
    simulated elapsed time next to the measured CPU time.  The cost
    model is deliberately simple and fully documented:

    - a sequential page read costs [t_seq_ms];
    - a random page read (index leaf, rowid fetch) costs [t_rand_ms];
    - fetching one intermediate-result tuple into the procedure costs
      [t_fetch_ms];
    - a page holds [rows_per_page] rows (row width is ignored).

    Charging conventions (see DESIGN.md):
    - materializing a block's tables charges one sequential scan per
      base table;
    - an index probe charges one random read for the leaf plus one per
      matching row fetched;
    - a nested-iteration rescan (no index) charges the inner block's
      scan once per outer tuple;
    - the NRA executor charges [t_fetch_ms] per wide-intermediate tuple
      (the paper's "communication overhead").

    Everything is global and single-threaded, matching the engine. *)

type config = {
  rows_per_page : int;
  t_seq_ms : float;
  t_rand_ms : float;
  t_fetch_ms : float;
  cache_pages : int;
      (** capacity of the LRU buffer cache consulted by {e identified}
          random reads ([charge_row_fetch]); 0 disables caching.  The
          paper's environment kept ≈3% of the database cached; pick
          [cache_pages] accordingly for the scale in use. *)
  page_size_kb : float;
      (** size of one simulated page in KB (default 8.0) — the unit a
          memory budget in MB is divided by ([Nra.Engine_config.frames]),
          so the paper's "32 MB buffer cache" is an exact frame count
          ([--page-size-kb] on the CLI). *)
}

val default_config : config
(** 100 rows/page, 0.1 ms sequential, 1.0 ms random, 0.12 ms/tuple
    fetch — calibrated so the scaled-down TPC-H runs land in the same
    regime as the paper's figures (the fetch constant is derived from
    the paper's own Query 1 numbers). *)

val config : unit -> config
val set_config : config -> unit

val reset : unit -> unit

val on_reset : (unit -> unit) -> unit
(** Register a hook run by every {!reset}: the buffer pool above this
    module clears its residency and counters through it, so "cold"
    measurements stay cold after a reset. *)

val pages : int -> int
(** [pages rows] — how many pages that many rows occupy
    (ceiling division by [rows_per_page]). *)

val charge_scan_rows : int -> unit
(** Sequential scan of a relation with that many rows. *)

val charge_probe : matches:int -> unit
(** One index probe returning [matches] rows. *)

val charge_random_pages : int -> unit
(** Raw random reads with no page identity — never cached. *)

val charge_row_fetch : table:string -> row_id:int -> unit
(** Fetch one row by rowid: identifies the page [(table,
    row_id / rows_per_page)] and consults the buffer cache — a hit is
    free, a miss costs one random read.  Used by index-driven nested
    iteration, where page locality is exactly what the paper's buffer
    cache traded against. *)

val cache_hits : unit -> int
val cache_misses : unit -> int

val charge_fetch_rows : int -> unit
(** Engine → procedure transfer of intermediate tuples. *)

val charge_page_in : int -> unit
(** Buffer-pool miss: [n] pages read back from a spill partition or a
    table extent (sequential; fault site ["page-in"]). *)

val charge_page_out : int -> unit
(** Buffer-pool writeback: [n] dirty frames flushed on eviction
    (fault site ["page-out"]). *)

val charge_wal_append : pages:int -> unit
(** Append that many pages to the write-ahead log (fault site
    ["wal"]). *)

type counters = {
  seq_pages : int;
  rand_pages : int;
  fetched_rows : int;
}

val counters : unit -> counters

(** {2 Per-task ledgers}

    A stack of open ledgers that every charge function also tallies
    into.  [push_ledger] opens one; [uncharge] subtracts exactly that
    ledger's charges (including cache hit/miss tallies) from the global
    counters — other tasks' charges interleaved by the scheduler are
    untouched, which is what lets Auto's attempt run {e without} a
    no-yield critical section.  The stack is task-local: the scheduler
    detaches it at every context switch via [save_task]/[restore_task]
    (threaded through [Guard.ctx]). *)

type ledger

val push_ledger : unit -> ledger
val pop_ledger : ledger -> unit
(** Pops down to and including the given ledger (tolerant of nested
    pushes abandoned by an exception). *)

val uncharge : ledger -> unit
(** Subtract the ledger's tallies from the global counters and from any
    still-open enclosing ledgers (so a nested attempt's aborted work is
    not uncharged twice).  Cache contents stay warm. *)

type task_io
(** The detached ledger stack of a suspended task. *)

val empty_task : task_io
val save_task : unit -> task_io
val restore_task : task_io -> unit

val simulated_seconds : unit -> float
(** Simulated elapsed I/O time since the last [reset]. *)

type mark = { mutable ms : float }
(** A clock reading.  A float returned from a function is boxed; the
    guard and the scheduler read the clock at every context switch and
    checkpoint, so they keep their readings in this flat float record
    instead. *)

val sample_ms : mark -> unit
(** [sample_ms m] sets [m.ms] to [simulated_seconds () *. 1000.0], bit
    for bit, without allocating. *)
