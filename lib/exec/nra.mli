(** The nested relational approach — Section 4 of the paper.

    Algorithm 1: unnest top-down by reducing every block to a relation
    (local selections pushed down) and left-outer-hash-joining it under
    its correlated predicates into one wide intermediate relation; then
    compute the linking predicates bottom-up, each as a [nest]
    (υ{_ N1,N2}) followed by a linking selection — σ when failing tuples
    may be discarded (outermost predicate, or all enclosing predicates
    positive), σ̄ (pad the owning block's attributes, including its
    carried primary key, with NULL) otherwise.

    The variants of Section 4.2 are selectable:
    - {b pipelined} (§4.2.1–4.2.2): one shared physical sort (fused
      consecutive nests — an upper level's nesting attributes are a
      prefix of the level below, and outer joins preserve the left
      order, so re-sorts are skipped) and the linking selection
      evaluated during the group scan, in a single pass.  At a site
      whose wide frame feeds no grandchild, the nest groups the join's
      per-outer-row match lists as the probe emits them (the fused
      probe–nest–select), so the wide product is never materialized;
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

type options = {
  pipelined : bool;
  nest_impl : [ `Sort | `Hash ];
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

type nest_directive = {
  n_pipelined : bool;
      (** evaluate the linking selection during the group scan instead of
          materializing υ (§4.2.1–4.2.2) *)
  n_assume_sorted : bool;
      (** fuse with the upstream sort: when the wide input is already
          key-sorted at runtime, skip the re-sort and stream groups off
          the run scan.  Checked against the executor's own sorted-prefix
          tracking, so an over-optimistic directive degrades to the
          materialized path rather than changing results. *)
}

(** Per linking site (keyed by block id), which of the five evaluation
    paths to take.  Directives come from the [lib/opt] rewriter; each is
    validated against the site's structural preconditions at runtime and
    silently falls back to the options-driven choice when they no longer
    hold, so a stale or wrong directive can never change results. *)
type link_impl =
  | D_shared_set  (** uncorrelated: evaluate once, share the value set *)
  | D_push_down  (** §4.2.4 group-by-correlation-key probe *)
  | D_semijoin  (** §4.2.5 positive linking → plain semijoin *)
  | D_bottom_up of nest_directive  (** §4.2.3 reduce standalone, then join+nest *)
  | D_top_down of nest_directive  (** Algorithm 1 general case *)

type directives = (int * link_impl) list

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
      (** sites evaluated by the fused probe–nest–select: pipelined
          sites whose wide frame feeds no grandchild, which group the
          join's match lists directly instead of materializing,
          staging and sorting the wide product *)
}

val run_where :
  ?options:options ->
  ?directives:directives ->
  Catalog.t ->
  Analyze.t ->
  Relation.t * stats
(** Outer-frame rows satisfying WHERE, plus cost counters. *)

val run :
  ?options:options ->
  ?directives:directives ->
  Catalog.t ->
  Analyze.t ->
  Relation.t
(** [run_where] followed by output post-processing. *)

val plan_description : ?options:options -> Analyze.t -> string
(** The operator pipeline the executor would run (the paper's Figure 3b
    query tree, linearized), without executing anything: one line per
    join / nest / linking selection, annotated with the σ-vs-σ̄ choice
    and any §4.2 shortcut taken. *)
