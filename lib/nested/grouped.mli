(** One-level nested relations, physically: the engine's one nested
    model.

    The result of υ{_ N1,N2} over a flat relation, stored as an array of
    (key row, element rows) groups.  A query nested to depth [d] is never
    built as a [d]-level value: the executor keeps one wide flat relation
    and nests it one level per linking site, bottom-up, so each
    set-valued attribute is a run of element rows keyed by its parent
    tuple.  That is the {e shredded} form of a nested relation, which
    Cheney, Lindley and Wadler prove equivalent to nested multisets
    (Query shredding, arXiv:1404.7078); it is also how the paper's own
    engine ran, simulating υ with a sort.  Element multiplicity is
    preserved (linking-predicate semantics are insensitive to
    duplicates, so skipping deduplication is the cheaper choice).

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

(** {1 Linking selections — Definition 5}

    [select] returns a {e flat} relation over [key_schema]: the paper's
    implicit projection of the selection result onto the nesting
    attributes (the nested component has served its purpose once the
    predicate is computed).  [select (nest_sort …)] is the NRA
    executor's materialized path: a site that is not pipelined (every
    site under nra-original) runs exactly this loop. *)

type mode =
  | Discard  (** σ: keep the keys of groups whose predicate is [True]. *)
  | Pad of int array
      (** σ̄: every group's key survives; for groups whose predicate is
          not [True] these positions (of the key schema) are overwritten
          with NULL — including, by construction, the carried primary
          key of the inner block, so enclosing levels see the tuple as
          "failed". *)

val padded : int array -> Row.t -> Row.t
(** [padded pad key] is a copy of [key] with the [pad] positions
    NULL. *)

val select : mode -> Link_pred.t -> marker:int option -> t -> Relation.t
(** One pass of the predicate's {!Link_pred.fold} per group, in group
    order, ticking the statement guard once per group; elements whose
    [marker] position is NULL are skipped. *)

val pp : Format.formatter -> t -> unit
