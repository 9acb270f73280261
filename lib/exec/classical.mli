(** Classical unnesting — the "System A native approach" baseline.

    Implements the Kim/Dayal-style rewrites a 2005-era commercial
    optimizer applies, with the same limitations the paper documents:

    - positive linking (EXISTS / IN / θ SOME) → {e semijoin};
    - NOT EXISTS → {e antijoin};
    - NOT IN / θ ALL → antijoin on the complemented operator, but
      {e only} when both linking and linked attributes are declared
      NOT NULL (otherwise the rewrite is wrong under NULLs — Section 2);
    - a subquery correlated to a {e non-adjacent} block (the paper's
      Query 3 family) cannot be reduced to a join and falls back to
      nested iteration (with index access), as does any case where a
      rule does not apply.

    [plan] reports which strategy was chosen per subquery, so tests can
    assert that e.g. Query 2b degenerates to nested iteration exactly
    when the NOT NULL constraint is absent. *)

open Nra_relational
open Nra_storage
open Nra_planner

type strategy = Semijoin | Antijoin | Iterate

val choose : Analyze.t -> Analyze.child -> strategy
(** The strategy a subquery runs under. *)

val plan : Catalog.t -> Analyze.t -> (int * strategy) list
(** Strategy per block id (children of each block, pre-order). *)

val run_where : Catalog.t -> Analyze.t -> Relation.t
val run : Catalog.t -> Analyze.t -> Relation.t

val strategy_to_string : strategy -> string
