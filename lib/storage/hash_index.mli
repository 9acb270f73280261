(** Equality indexes: key projection of a relation → row ids.

    An index is a {!Nra_relational.Keyed} table that owns its arrays, over
    the row ids of the relation it was built from: keys are read in
    place from that relation's rows (shared), never copied.  Rows whose
    key contains a NULL are not
    indexed (an equality probe can never match them — SQL
    equi-semantics).  Used by the nested-iteration baseline to model
    "System A accesses the inner table by index rowid"; the catalog
    builds a table's index the first time that baseline probes it
    ({!Catalog.force}).  Hash joins do not use it: they build their own
    table ([Join.with_matches]). *)

open Nra_relational

type t

val build : Relation.t -> int array -> t
(** [build rel positions] indexes [rel] on the given column positions.
    The index refers to [rel]'s rows array, which must not be mutated
    afterwards. *)

val probe : t -> Row.t -> int list
(** [probe idx key_row] returns, in ascending order, the ids of rows
    whose key equals [key_row] (a row containing exactly the key values,
    in index position order) under {!Value.compare}.  A probe containing
    NULL, or of another arity than the key, returns []. *)

val first_duplicate : t -> int option
(** The smallest id whose key equals that of a smaller id, if any: the
    row a scan of the whole relation reports as a duplicate key, which
    {!Catalog.update_rows} reports from the rows a write introduces. *)

val cardinality : t -> int
(** Number of indexed (non-NULL-keyed) rows. *)
