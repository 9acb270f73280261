(** Nested relational processing of SQL subqueries — public facade.

    This library reproduces Cao & Badia, {e "A Nested Relational
    Approach to Processing SQL Subqueries"} (SIGMOD 2005): a complete
    in-memory relational engine, a SQL subset with arbitrarily nested
    non-aggregate subqueries, and interchangeable evaluation
    strategies: nested iteration, classical unnesting, magic
    decorrelation, and the paper's nested relational approach in three
    configurations.

    Quickstart:
    {[
      let cat = Nra.Tpch.Gen.generate Nra.Tpch.Gen.default in
      match Nra.query cat "select o_orderkey from orders where ..." with
      | Ok rel -> Format.printf "%a@." Nra.Relation.pp rel
      | Error e -> prerr_endline e
    ]} *)

(** {1 Re-exported components} *)

module Value = Nra_relational.Value
module Three_valued = Nra_relational.Three_valued
module Ttype = Nra_relational.Ttype
module Schema = Nra_relational.Schema
module Row = Nra_relational.Row
module Relation = Nra_relational.Relation
module Expr = Nra_relational.Expr

module Batch = Nra_relational.Batch
(** Columnar batches: typed unboxed columns + null bitmaps behind the
    morsel filter; each base table owns one ({!Table.batch}) — see
    docs/PERF.md. *)

module Scratch = Nra_relational.Scratch
(** The borrowed int buffers behind the hash join's table and offset
    vectors, the keyed tables and a scan's selection vector — see
    docs/PERF.md. *)

module Keyed = Nra_relational.Keyed
(** Rows by key columns: the one chained table behind the hash join,
    grouping, DISTINCT, the set operations, the equality index and the
    keyed linking sets — see docs/INTERNALS.md. *)

module Table = Nra_storage.Table
module Catalog = Nra_storage.Catalog
module Hash_index = Nra_storage.Hash_index
module Sorted_index = Nra_storage.Sorted_index

module Fault = Nra_storage.Fault
(** Deterministic fault injection into the simulated I/O layer — see
    docs/ROBUSTNESS.md. *)

module Iosim = Nra_storage.Iosim
(** The simulated I/O cost model the executors charge. *)

module Bufpool = Nra_storage.Bufpool
(** The paged buffer pool behind out-of-core execution
    ([Engine_config.frames]) — see docs/STORAGE.md. *)

module Governor = Nra_storage.Governor
(** The per-statement memory governor: every staged intermediate is
    charged rows x width to a live-bytes ledger with a session
    high-water mark, and stagings that exceed the buffer pool's frame
    budget spill through {!Bufpool} — see docs/STORAGE.md. *)

module Wal = Nra_storage.Wal
(** The catalog's write-ahead log of row deltas, wrapping every DDL and
    DML mutation; [Wal.recover] repairs the catalog after a
    {!Fault.Crash} — see docs/STORAGE.md. *)

module Guard = Nra_guard.Guard
(** Resource budgets and cooperative cancellation; pass a
    {!Guard.budget} to {!query} / {!exec} / {!run}. *)

module Pool = Nra_pool.Pool
(** The Domain pool behind morsel-driven intra-query parallelism
    ([Engine_config.domains]) — see docs/PERF.md. *)

module Algebra : sig
  module Basic = Nra_algebra.Basic
  module Join = Nra_algebra.Join
  module Setops = Nra_algebra.Setops
  module Aggregate = Nra_algebra.Aggregate
  module Sort = Nra_algebra.Sort
end

module Nested : sig
  module Grouped = Nra_nested.Grouped
  module Link_pred = Nra_nested.Link_pred
end

module Sql : sig
  module Ast = Nra_sql.Ast
  module Lexer = Nra_sql.Lexer
  module Parser = Nra_sql.Parser
end

module Planner : sig
  module Resolved = Nra_planner.Resolved
  module Analyze = Nra_planner.Analyze
end

module Exec : sig
  module Frame = Nra_exec.Frame
  module Post = Nra_exec.Post
  module Naive = Nra_exec.Naive
  module Classical = Nra_exec.Classical
  module Magic = Nra_exec.Magic
  module Linkeval = Nra_exec.Linkeval
  module Plan = Nra_exec.Plan
  module Nra_exec = Nra_exec.Nra
end

module Tpch : sig
  module Prng = Nra_tpch.Prng
  module Gen = Nra_tpch.Gen
  module Queries = Nra_tpch.Queries
end

module Stats : sig
  module Histogram = Nra_storage.Histogram
  module Col_stats = Nra_storage.Col_stats
  module Table_stats = Nra_storage.Table_stats
  module Cardinality = Nra_stats.Cardinality
  module Cost = Nra_stats.Cost
end

module Opt : sig
  module Config = Nra_opt.Config
  module Rewrite = Nra_opt.Rewrite
end
(** The algebraic rewrite subsystem: four cost-gated rules (nest
    fusion, push-down, pipelining, semijoin conversion) that edit the
    NRA plan ({!Exec.Plan}) the executor then runs — see
    docs/OPTIMIZER.md. *)

(** {1 Configuration} *)

module Engine_config = Engine_config
(** Every engine setting in one value; the table of fields, variables,
    flags and defaults is in docs/INTERNALS.md. *)

val config : unit -> Engine_config.t
(** The installed config: its engine-wide fields as the owning modules
    hold them now, its statement-level fields as last installed. *)

val configure : Engine_config.t -> unit
(** Install a config.  Each engine-wide part that differs from the
    installed one goes to its owning module's setter ({!Pool.configure},
    {!Iosim.set_config}, {!Bufpool.set_frames}, {!Fault.configure});
    the statement-level fields apply to statements prepared from now
    on. *)

val set_rewrite_rules : Nra_opt.Config.rule list -> unit
(** Install [{ (config ()) with rules }] (a shorthand kept for the
    benchmark driver). *)

(** {1 Errors} *)

(** Every way a statement can fail, as one closed type.  The string API
    ({!query}, {!exec}) renders these with {!Exec_error.to_string}; the
    structured API ({!run}) returns them directly.  No exception escapes
    the public entry points for malformed, unsupported, over-budget or
    faulted statements. *)
module Exec_error : sig
  type t =
    | Budget_exceeded of Guard.resource
        (** killed by the active {!Guard.budget} *)
    | Cancelled  (** killed via a cancelled {!Guard.token} *)
    | Io_error of string
        (** a (simulated) I/O fault survived the executor's retries *)
    | Parse of { message : string; offset : int option; excerpt : string }
        (** lex/parse failure, with the offending byte offset and a
            caret excerpt when available *)
    | Invalid of string
        (** semantic rejection: unknown tables/columns, arity or type
            mismatches, key violations, DDL misuse *)
    | Unsupported of string
        (** the chosen strategy cannot run this (well-formed) query *)
    | Runtime of string  (** any other evaluator failure *)
    | Rejected of string
        (** refused before execution by the serving layer's admission
            controller: the wait queue was full, or the session was
            closed (see [nra.server]) *)
    | Queue_timeout of { waited_ms : float }
        (** admitted to the wait queue but no execution slot freed
            within the queue timeout *)

  val to_string : t -> string
end

(** {1 Convenience API} *)

type strategy =
  | Naive  (** nested iteration, index-assisted *)
  | Classical  (** semijoin/antijoin unnesting with fallbacks *)
  | Magic  (** magic decorrelation (related work §2) *)
  | Nra_original  (** the paper's approach, unoptimized *)
  | Nra_optimized  (** pipelined nest + linking selection (default) *)
  | Nra_full  (** all Section 4.2 optimizations *)
  | Hybrid
      (** the paper's Section 6 integration story: when classical
          unnesting applies to {e every} subquery (semijoins/antijoins
          only, no iteration fallback), use it — it wins on positive
          operators (Figure 5); otherwise use the full nested relational
          approach *)
  | Auto
      (** cost-based dispatch: price every concrete strategy with
          {!Stats.Cost} (using whatever [ANALYZE] statistics are fresh —
          System-R defaults otherwise) and run the cheapest.  Always
          returns the same relation as the other strategies; estimation
          failures fall back to [Nra_optimized]. *)

val strategies : (string * strategy) list
val strategy_of_string : string -> strategy option
val strategy_to_string : strategy -> string

val query :
  ?strategy:strategy ->
  ?guard:Guard.budget ->
  Catalog.t ->
  string ->
  (Relation.t, string) result
(** Parse, analyze and run a SQL statement — a SELECT query, or several
    combined with [UNION / INTERSECT / EXCEPT [ALL]] (an ORDER BY /
    LIMIT after the last component applies to the combined result and
    must use output column names or 1-based positions), optionally
    under [WITH name AS (…), …]: each CTE is a statement-local
    relation that sees the CTEs before it, may shadow a table, and
    touches neither the catalog nor its log.  Defaults to
    [Nra_optimized].  When [guard] is given, evaluation runs under that
    budget and a crossed limit returns an [Error] instead of running
    unbounded. *)

val query_exn : ?strategy:strategy -> Catalog.t -> string -> Relation.t

(** {1 Commands — DDL and DML} *)

type exec_result =
  | Rows of Relation.t  (** a query's result *)
  | Count of int  (** rows inserted / deleted *)
  | Done of string  (** DDL acknowledgement *)

val exec :
  ?strategy:strategy ->
  ?guard:Guard.budget ->
  Catalog.t ->
  string ->
  (exec_result, string) result
(** Run any command: a query (like {!query}), [CREATE TABLE] (a
    [PRIMARY KEY] clause is mandatory — the engine's invariant),
    [DROP TABLE], [INSERT INTO t VALUES (…), …],
    [INSERT INTO t SELECT …], or [DELETE FROM t [WHERE …]] (the WHERE
    may contain subqueries and runs under the chosen strategy).
    Modifications validate the rows they introduce against the schema
    and enforce key uniqueness — all {e before} the single commit
    point, so a budget kill, fault, or type error mid-DML leaves the
    table, its indexes, and the catalog generation untouched.  The
    table's indexes are built again when a query next probes them.
    [ANALYZE [t]] collects optimizer statistics (see {!Stats}) for one
    table or the whole catalog into the catalog entries
    ({!Catalog.analyze}). *)

val run :
  ?strategy:strategy ->
  ?guard:Guard.budget ->
  Catalog.t ->
  string ->
  (exec_result, Exec_error.t) result
(** {!exec} with structured errors — the taxonomy of {!Exec_error}
    instead of rendered strings. *)

(** {1 Prepared statements} *)

type prepared
(** A statement carried past its per-execution costs: parsed, and — for
    a plain SELECT — analyzed into the block tree and priced as a
    one-shot statement is: [Auto]'s estimates and every NRA strategy's
    rewrite, or an NRA-family strategy's one rewrite.  The [nra.server]
    plan cache stores these keyed on (normalized text, strategy) and
    stamped with the catalog generation, so repeated statements skip
    parse/plan/estimate/rewrite.  A preparation keeps the config it was
    made under, and runs under it. *)

val prepare :
  ?config:Engine_config.t ->
  ?strategy:strategy ->
  Catalog.t ->
  string ->
  (prepared, Exec_error.t) result
(** Parse [sql]; analyze it when it is a plain SELECT, and price it
    once, as {!run} does before it executes: when [strategy] is [Auto],
    every strategy and every NRA strategy's rewrite, in one cardinality
    context (its fallback [Nra_optimized]'s rewrite alone when that
    fails); when it is an NRA-family strategy, that strategy's rewrite
    ([Hybrid]: [Nra_full]'s).  Rules and Auto's guard come from
    [config] (default: the installed one, {!config}).  Set
    operations, WITH and DML prepare to their parsed command only
    (execution analyzes per component, as {!run} does). *)

val reprepare : Catalog.t -> prepared -> (prepared, Exec_error.t) result
(** Prepare the statement again from its kept parse, against the
    catalog as it is now: the same analysis, pricing and errors as
    {!prepare} of its text, without lexing or parsing it again. *)

val run_prepared :
  ?guard:Guard.budget ->
  Catalog.t ->
  prepared ->
  (exec_result, Exec_error.t) result
(** Execute without re-parsing, re-analyzing, re-estimating or
    re-rewriting, through the runner {!run} uses: every strategy runs
    the rewrite it was priced with, and an [Auto] preparation replays
    its stored estimates through the same budget-aware pick and
    kill-and-fallback protocol ([Nra_optimized] when it holds none).
    The pick still consults [Guard.remaining ()] at
    {e execution} time, so a cached plan adapts to the caller's current
    budget.  The caller is responsible for staleness: a prepared
    statement must not outlive a change to its catalog, indexes or
    statistics (the plan cache enforces this with generation checks). *)

val prepared_strategy : prepared -> strategy

val prepared_estimates : prepared -> Nra_stats.Cost.estimate list
(** The ranked estimates an [Auto] preparation priced, as
    {!estimates_with_rewrites} gives them; [[]] when the statement was
    not priced for [Auto]. *)

val prepared_is_query : prepared -> bool
(** [true] for SELECT / set-operation statements — the only ones the
    plan cache retains (DDL and DML are cheap to parse and mutate the
    very generations the cache is keyed on). *)

val explain : Catalog.t -> string -> (string, string) result
(** A textual report: the block tree (the paper's "tree expression"),
    nesting depth, linearity, and the strategy the classical baseline
    would pick per subquery. *)

val explain_costs : Catalog.t -> string -> (string, string) result
(** The [EXPLAIN COSTS] report of the installed config's pricing of the
    statement for [Auto], the list {!estimates_with_rewrites} gives:
    every strategy's estimate (cheapest first, {!Stats.Cost.report}),
    the strategy [Auto] runs, its attempt guard, and each NRA
    strategy's rewrite trace. *)

val auto_choice : Catalog.t -> string -> (strategy, string) result
(** The strategy [Auto] would run for this query — exposed so
    benchmarks and tests can record the choice without re-estimating.
    Under an active {!Guard} budget the choice is budget-aware: the
    cheapest plan whose estimate {e fits} [Guard.remaining ()] wins
    over the globally cheapest (see {!Stats.Cost.pick}). *)

(** {1 The algebraic rewrite pass}

    Rules are off by default; a config's [rules] field enables them.
    Once enabled, every NRA-family execution — including [Auto]'s picks
    and [Hybrid]'s NRA arm — runs the cost-gated rewritten plan
    transparently; results are always byte-identical to the unrewritten
    plan. *)

val nra_base_options : strategy -> Nra_exec.Nra.options option
(** The executor options an NRA-family strategy runs under ([None] for
    the non-NRA strategies and [Auto]). *)

val rewrite_for :
  Catalog.t ->
  Nra_planner.Analyze.t ->
  Nra_exec.Nra.options ->
  Nra_opt.Rewrite.result option
(** [Some r] only when rules are enabled and the cost gate fired at
    least one edit for this plan. *)

val estimates_with_rewrites :
  Catalog.t -> Nra_planner.Analyze.t -> Nra_stats.Cost.estimate list
(** The estimate list [Auto] picks over under the installed config,
    cheapest first ([[]] when it could not be priced): each strategy's
    {!Stats.Cost.estimate_in}, an NRA strategy's priced by the walk of
    the plan it runs — its rewrite when the cost gate fired, else its
    lifted plan.  The estimates and the rewrites share one cardinality
    context and one lifted plan per NRA strategy. *)

(** {1 Statement footprints} *)

(** Which tables a command reads and writes — the serving layer grants
    table-level locks from this so statements with disjoint footprints
    interleave under the scheduler. *)
type footprint =
  | All_tables  (** conservative: conflicts with everything *)
  | Tables of { read : string list; write : string list }

val command_footprint : Sql.Ast.command -> footprint

val prepared_footprint : prepared -> footprint
(** The command's footprint, computed once when it was prepared. *)
