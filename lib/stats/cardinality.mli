(** Cardinality and selectivity estimation over {!Nra_planner.Analyze}
    output.

    Selectivities are three-valued: a predicate's estimate is the pair
    [(p_true, p_unknown)] (with [p_false] the remainder), combined under
    the usual independence assumptions by the 3VL truth tables — so
    [NOT] and the negative linking operators price the NULL mass
    correctly instead of folding it into [false].  Statistics come from
    the catalog ({!Nra_storage.Catalog.stats}) when the table was
    ANALYZEd; otherwise the classic System-R defaults apply (1/10 for
    equality, 1/3 for ranges, NDV heuristics from the key
    declaration). *)

open Nra_storage
open Nra_planner

type env
(** One statement's cardinality context: the catalog, the statement's
    analysis, and [block_card], [fanout] and [index_probe] memoised per
    block.  Build
    it once per statement and hand it to every estimate and rewrite
    candidate priced for that statement; it holds no state beyond the
    statement, so concurrently planned statements each hold their
    own. *)

val make_env : Catalog.t -> Analyze.t -> env
val catalog : env -> Catalog.t
val analysis : env -> Analyze.t

(** {1 The 3VL selectivity algebra}

    Selectivity pairs combined by the three-valued
    truth tables under independence. *)

type sel = { t : float; u : float }
(** [t] = P(true), [u] = P(unknown); P(false) is the remainder. *)

val and3 : sel -> sel -> sel
val or3 : sel -> sel -> sel
val not3 : sel -> sel

val block_card : env -> Analyze.block -> float
(** The block relation's size after pushed-down local selections: the
    product of its binding cardinalities (exact, from the catalog) times
    the probability a random base tuple satisfies all local conjuncts
    ([p_true] of their conjunction).  Computed once per block and
    context. *)

val fanout : env -> Analyze.block -> float
(** Expected matching inner tuples per outer tuple: [block_card] times
    the per-outer-tuple selectivity of the block's correlated conjuncts
    (for a fixed outer tuple, the probability that a random inner tuple
    matches; equality contributes [1/ndv(inner column)]).  Computed
    once per block and context. *)

type probe = {
  cols : string list;
      (** the columns nested iteration probes the block's index on
          ({!Nra_exec.Naive.index_choice} over its equi-correlation
          columns), or [[]] when the block is rescanned per probe:
          several bindings, no equi conjunct, or no usable index *)
  rows : float;
      (** candidate rows an index probe returns — base rows × Π 1/ndv
          over [cols], {e before} local selections (an index returns raw
          table rows; filters apply per candidate) *)
  pages_per_value : float;
      (** clustering of the first probed column: distinct pages per
          probed value (see {!Col_stats}); not positive when the table
          was not analyzed *)
}

val index_probe : env -> Analyze.block -> probe
(** How nested iteration reaches the block's rows; looked up once per
    block and context. *)
