(** The cost model: price every evaluation strategy's plan for a query
    in {!Nra_storage.Iosim} units, without running (or charging)
    anything.

    Each estimator mirrors its executor's charging discipline:

    - every strategy pays one sequential scan per base table it
      materializes ([Frame.block_relation]);
    - nested iteration (Naive, and the Classical/Magic iteration
      fallbacks) pays, per outer tuple, one random read for the index
      descent plus the probed rows' page misses — estimated from the
      probed column's [pages_per_value] clustering statistic — or a full
      inner rescan when no index applies;
    - Classical semijoin/antijoin reductions and Magic's pushed
      selections are scan-only (in-memory hash joins);
    - nested iteration prices the access path the executor takes:
      {!Nra_exec.Naive}'s equi-probe columns, index choice and
      evaluate-once test are the ones it runs with;
    - the NRA variants price the plan the executor runs,
      [Plan.lift ~base] of the strategy's options: every
      wide-intermediate tuple pays the per-tuple engine→procedure fetch,
      and the §4.2 shortcuts (push-down nest, positive simplification,
      standalone reduction) skip those fetches exactly at the sites the
      plan takes them.

    Ties are broken by a fixed preference order —
    Classical > Nra_full > Magic > Nra_optimized > Nra_original > Naive
    — reflecting CPU costs the I/O simulation cannot see (pipelining,
    magic-set construction, per-tuple interpretation). *)

open Nra_storage
open Nra_planner

type strategy =
  | Naive
  | Classical
  | Magic
  | Nra_original
  | Nra_optimized
  | Nra_full

val all : strategy list
val to_string : strategy -> string
(** Matches the names in [Nra.strategies]. *)

type breakdown = {
  seq_pages : float;
  rand_pages : float;
  fetched_rows : float;
}

type estimate = {
  strategy : strategy;
  cost_ms : float;  (** priced with the current {!Iosim.config} *)
  breakdown : breakdown;
}

val estimate : Catalog.t -> Analyze.t -> strategy -> estimate
(** One strategy's estimate, in a cardinality context of its own. *)

val nra_base : strategy -> Nra_exec.Nra.options option
(** The options an NRA strategy lifts its plan under ([None] for Naive,
    Classical and Magic). *)

(** {1 The walks}

    The estimators accumulate into a {!tally}, reused from walk to walk
    by a caller that prices many plans of one statement; its fields are
    unboxed floats, so a walk allocates no float of its own. *)

type tally = private {
  mutable seq : float;
  mutable rand : float;
  mutable fetch : float;
  mutable nest : float;
      (** the sequential pages of the plan's nest passes, which the
          strategy estimates leave out: a materialized nest pays a
          materialize-and-rescan pass and a sort, a pipelined or fused
          nest only a sort, skipped when its staging is statically
          key-sorted.  The rewrite engine prices them, because its
          edits change them. *)
  mutable ms : float;  (** the price of all four *)
  mutable sum : float;  (** scratch *)
}

val tally : unit -> tally

val walk : Cardinality.env -> Bytes.t -> tally -> unit
(** Charge the NRA plan with this signature ({!Nra_exec.Plan.signature})
    into the tally, cleared first: the scan and fetch charges the
    executor makes, and the nest passes. *)

val breakdown : tally -> breakdown
(** The scan and fetch charges of the last walk: the NRA strategy's
    breakdown when the plan is its lifted one. *)

val estimate_in : Cardinality.env -> ?walk:breakdown -> strategy -> estimate
(** One strategy's estimate in the context.  An NRA strategy given
    [walk], the {!breakdown} of the walk of the plan the strategy runs
    (its rewrite, or [Plan.lift ~base:(nra_base s)] of the statement),
    takes it; without it, the strategy lifts and walks its plan. *)

val compare : estimate -> estimate -> int
(** Cheaper first, ties in preference order. *)

val pick :
  remaining_io_ms:float option -> remaining_rows:int option ->
  estimate list -> estimate
(** Budget-aware choice over a cheapest-first estimate list: the
    cheapest estimate that fits (its [cost_ms] within the remaining
    simulated-I/O allowance, its [breakdown.fetched_rows] — charged per
    wide-intermediate tuple, as the executor counts rows — within the
    remaining row allowance), or the globally cheapest when none
    does (a doomed query should still take its cheapest path to the
    kill).  This is how a caller's [Guard.remaining ()] steers Auto: a
    tight row budget flips the choice away from intermediate-heavy
    plans toward scan-shaped ones even when the latter price higher.
    @raise Invalid_argument on an empty list. *)

val report : Cardinality.env -> estimate list -> string
(** The EXPLAIN COSTS table of the context's statement over a
    cheapest-first, non-empty estimate list: each estimate's breakdown
    and the first one as the choice, with a note when some table lacks
    fresh statistics. *)
