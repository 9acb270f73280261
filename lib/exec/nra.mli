(** The nested relational approach — Section 4 of the paper.

    Algorithm 1: unnest top-down by reducing every block to a relation
    (local selections pushed down) and left-outer-hash-joining it under
    its correlated predicates into one wide intermediate relation; then
    compute the linking predicates bottom-up, each as a [nest]
    (υ{_ N1,N2}) followed by a linking selection — σ when failing tuples
    may be discarded (outermost predicate, or all enclosing predicates
    positive), σ̄ (pad the owning block's attributes, including its
    carried primary key, with NULL) otherwise.

    Each linking site runs the implementation its {!Plan} node names;
    the variants of Section 4.2 are the options {!Plan.lift} chooses
    them from:
    - {b pipelined} (§4.2.1–4.2.2): one shared physical sort (fused
      consecutive nests — an upper level's nesting attributes are a
      prefix of the level below, and outer joins preserve the left
      order, so re-sorts are skipped) and the linking selection
      evaluated during the group scan, in a single pass.  The wide
      product is never materialized: at a site whose wide frame feeds
      no grandchild, the nest groups the join's per-outer-row match
      ranges as the probe emits them (the fused probe–nest–select), and
      a site whose wide frame feeds its child's sites keeps it as
      position pairs (outer row, child row), which those sites read in
      place and the nest groups by outer row;
    - {b bottom-up for linear correlation} (§4.2.3): a self-contained
      subquery is reduced standalone so only qualifying tuples join
      upward;
    - {b nest push-down} (§4.2.4): with equality correlation, the child
      is grouped by its correlation key once and probed per outer tuple
      instead of materializing the outer join;
    - {b positive simplification} (§4.2.5):
      σ{_ AθSOME{B}}(υ(R ⟕{_C} S)) → R ⋉{_ C∧AθB} S when discarding is
      allowed.

    No indexes are required anywhere: hash joins, sorts and hashes only. *)

open Nra_relational
open Nra_storage
open Nra_planner

type options = Plan.options = {
  pipelined : bool;
  bottom_up_linear : bool;
  push_down_nest : bool;
  positive_simplify : bool;
}

val original : options
(** The paper's "original nested relational approach": sort-based nest
    materialized, separate linking-selection pass. *)

val optimized : options
(** The paper's "optimized" variant: pipelined nest + linking selection
    (one pass over the intermediate result). *)

val full : options
(** Everything in Section 4.2 switched on. *)

type stats = {
  mutable peak_intermediate_rows : int;
      (** largest wide (outer-join) relation, counted at its logical
          cardinality even where a fused site never materializes it *)
  mutable total_intermediate_rows : int;
  mutable nest_select_seconds : float;
      (** time in nest + linking selection (grouping and verdicts) — the
          cost the paper reports separately *)
  mutable join_seconds : float;  (** time in outer joins: build + probe *)
  mutable fused_sites : int;
      (** pipelined sites that build no wide row: a leaf site's fused
          probe–nest–select groups the join's match ranges directly,
          and a site whose wide frame feeds its child's sites keeps that
          frame as position pairs, instead of materializing, staging and
          sorting the wide product *)
}

val run_where :
  ?options:options ->
  ?directives:Plan.t ->
  Catalog.t ->
  Analyze.t ->
  Relation.t * stats
(** Outer-frame rows satisfying WHERE, gathered into a relation of
    their own, plus cost counters.  Runs the
    plan [directives] (a rewritten plan of this very [Analyze.t]) as
    given, or [Plan.lift ~base:options] (default {!optimized}) when it
    is absent.
    @raise Invalid_argument before anything runs when the plan was
    lifted from another query, or one of its nodes is not
    {!Plan.admissible} or carries a discard context its position
    contradicts. *)

val run :
  ?options:options ->
  ?directives:Plan.t ->
  Catalog.t ->
  Analyze.t ->
  Relation.t
(** [run_where] followed by output post-processing, except that the
    WHERE rows are not gathered: a frame that leaves the last site as
    base rows plus a selection is post-processed through it
    ([Post.apply ~sel]), so a result row is the only row built for
    it. *)

val plan_description : Plan.t -> string
(** The operator pipeline the plan runs (the paper's Figure 3b query
    tree, linearized), without executing anything: one line per join /
    nest / linking selection, annotated with the σ-vs-σ̄ choice and any
    §4.2 shortcut taken. *)
