(** Range (B+-tree-like) indexes: the ids of a relation's rows, sorted
    by key, with binary search.  Like {!Hash_index}, an index shares the
    indexed relation's rows array and reads keys in place.  Supports
    point and range probes over a single column or a column prefix.
    NULL keys are excluded, as in {!Hash_index}. *)

open Nra_relational

type t

val build : Relation.t -> int array -> t
(** [build rel positions] indexes [rel] on the given column positions.
    The index refers to [rel]'s rows array, which must not be mutated
    afterwards. *)

type bound = Unbounded | Incl of Value.t | Excl of Value.t

val range : t -> lo:bound -> hi:bound -> int list
(** Row ids whose {e first} key column falls in the interval, in key
    order.  For multi-column indexes the remaining columns only break
    ties; equal keys are in ascending id order. *)

val probe : t -> Row.t -> int list
(** Exact match on a key prefix: the ids of rows whose first
    [Array.length key_row] key columns equal [key_row] under
    {!Value.compare}, in ascending order.  A probe containing NULL,
    empty, or longer than the key returns []. *)

val cardinality : t -> int
(** Number of indexed (non-NULL-keyed) rows. *)
