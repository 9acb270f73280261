(** Nested relations of arbitrary depth — the paper's Definitions 1 & 2.

    A nested schema has atomic attributes plus named subschemas; a nested
    tuple carries one value per atomic attribute and one subrelation (a
    set of nested tuples) per subschema.

    This module is the faithful, general model used by the public API,
    the paper's worked example and the tests.  The benchmark executor
    uses the specialized one-level representation in {!Grouped}, which
    implements the same [nest]/linking-selection semantics without
    materializing nested values. *)

open Nra_relational

type schema = {
  atoms : Schema.column array;
  subs : (string * schema) array;
}

type tuple = { avals : Value.t array; svals : t array }
and t = { sch : schema; tuples : tuple list }

val depth : schema -> int
(** Definition 1: a flat schema has depth 0. *)

val of_flat : Relation.t -> t
(** A flat relation as a nested relation of depth 0. *)

val to_flat : t -> Relation.t
(** @raise Invalid_argument if the relation is not flat. *)

val equal : t -> t -> bool
(** Set equality, recursive (subrelations compared as sets). *)

(** {1 Nest and unnest — Definition 3} *)

val nest : ?name:string -> by:int list -> keep:int list -> t -> t
(** [nest ~by:n1 ~keep:n2 r] is υ{_ N1,N2}(r): group the tuples by their
    [n1] atoms (total value order: NULL groups with NULL) and collect,
    per group, the set of [n2]-atom subtuples.  Per the paper's modified
    definition the result is implicitly projected onto N1 ∪ N2.  Existing
    subrelations travel with the nested part: each element of the new
    subrelation keeps the subrelations of the tuple it came from, which
    is what makes consecutive nests build multi-level relations.
    @raise Invalid_argument if [by] and [keep] overlap or are out of
    range. *)

val unnest : sub:int -> t -> t
(** μ: flatten subrelation number [sub]; each element contributes one
    output tuple (atoms ++ element atoms, subrelations ++ element
    subrelations).  A tuple whose subrelation is empty vanishes —
    [unnest] is only a left inverse of [nest] on relations where every
    group is non-empty (the classical partial-inverse caveat). *)

val pp : Format.formatter -> t -> unit
