(** One-level nested relations, physically.

    This is the representation the evaluators use: the result of
    υ{_ N1,N2} over a flat relation, stored as an array of
    (key row, element rows) groups.  Element multiplicity is preserved
    (linking-predicate semantics are insensitive to duplicates, so the
    set-vs-bag distinction of {!Nested_relation} is immaterial here and
    skipping deduplication is the cheaper choice).

    [nest_sort] is the paper's sort-based nest (Section 5.1: sort then
    cut runs — the one its stored procedures simulate).  The hash-based
    nest is the fused probe's per-row match ranges
    ([Nra_algebra.Join.with_matches]), which never materialize a
    [t]. *)

open Nra_relational

type t = {
  key_schema : Schema.t;
  elem_schema : Schema.t;
  groups : (Row.t * Row.t array) array;
}

val nest_sort : by:int array -> keep:int array -> Relation.t -> t
(** Groups appear in key order. *)

val cardinality : t -> int

val unnest : t -> Relation.t
(** Flatten back (groups with no elements vanish). *)

val to_nested : t -> Nested_relation.t
(** Convert to the general model (deduplicating elements). *)

(** {1 Linking selections — Definition 5}

    Both return a {e flat} relation over [key_schema]: the paper's
    implicit projection of the selection result onto the nesting
    attributes (the nested component has served its purpose once the
    predicate is computed). *)

val select : Link_pred.t -> marker:int option -> t -> Relation.t
(** σ: keys of groups whose linking predicate is [True]. *)

val pseudo_select : Link_pred.t -> marker:int option -> pad:int array ->
  t -> Relation.t
(** σ̄: every group's key survives; for groups whose predicate is not
    [True] the [pad] positions (of the key schema) are overwritten with
    NULL — including, by construction, the carried primary key of the
    inner block, so enclosing levels see the tuple as "failed". *)

val pp : Format.formatter -> t -> unit
