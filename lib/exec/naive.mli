(** Nested iteration — the paper's "native approach" core.

    Subquery predicates are evaluated tuple-at-a-time: for each
    candidate row of the outer frame the inner block is recomputed
    (recursively), with the inner table accessed through an index on the
    correlated attributes when one exists (mirroring "lineitem is
    accessed by index rowid"); otherwise the inner block is scanned.

    This is the semantic reference implementation: it follows SQL's
    tuple-iteration semantics directly, so the equivalence tests pit the
    other executors against it. *)

open Nra_relational
open Nra_storage
open Nra_planner

type stats = { mutable inner_loops : int; mutable index_probes : int }

val stats : stats
(** Global counters (reset at each [run]). *)

(** {1 The access path}, shared with the cost model *)

val index_choice :
  Catalog.t -> Analyze.binding -> string list -> string list option
(** The index nested iteration probes the binding's base table through
    for these equi columns — an exact sorted index on all of them, else
    a hash index covering a subset, else a sorted index on one — as the
    columns it keys on; [None] when the inner block is rescanned
    instead.  Reads only the catalog's index columns: choosing (and so
    pricing) builds no index, and execution builds the chosen one on
    its first probe ({!Catalog.force}). *)

val compile :
  ?use_indexes:bool ->
  Catalog.t ->
  Analyze.t ->
  Schema.t ->
  Analyze.child ->
  Row.t ->
  Three_valued.t
(** [compile cat t outer_schema child] builds the per-row evaluator of
    one subquery predicate against rows of [outer_schema].  Exposed so
    the classical executor can fall back to nested iteration for the
    operators it cannot unnest. *)

val run_where :
  ?use_indexes:bool -> Catalog.t -> Analyze.t -> Relation.t
(** Outer-frame rows satisfying the full WHERE. *)

val run : ?use_indexes:bool -> Catalog.t -> Analyze.t -> Relation.t
(** [run_where] followed by output post-processing. *)
