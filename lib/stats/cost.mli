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

val pages : float -> float
(** Pages that many rows occupy (at least one). *)

val price : breakdown -> float
(** A breakdown's simulated milliseconds at the current {!Iosim.config}. *)

val plan_breakdown :
  ?nest:(Nra_exec.Plan.node -> Nra_exec.Plan.nest -> rows:float -> unit) ->
  Cardinality.env -> Nra_exec.Plan.t -> breakdown
(** The scan and fetch charges of an NRA plan of the context's
    statement, as {!estimates} prices the NRA strategies.  [nest] sees
    every join+nest site, its nest and its estimated wide row count. *)

val estimates :
  ?walks:(strategy * breakdown) list -> Cardinality.env -> estimate list
(** All six for the context's statement, cheapest first (ties in
    preference order), priced in that one context.  An NRA strategy
    listed in [walks] takes that breakdown, which must be
    {!plan_breakdown} of [Plan.lift ~base:(nra_base s)] of the
    statement; the others lift and walk their own. *)

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

val report : Cardinality.env -> string
(** The EXPLAIN COSTS table for the context's statement: per-strategy
    breakdowns and the choice, with a note when some table lacks fresh
    statistics. *)
