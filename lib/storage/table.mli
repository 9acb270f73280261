(** Base tables.

    A table is a named relation whose schema is qualified with the table
    name and whose primary-key columns are marked [is_key].  Every table
    must declare a primary key: the paper's nested relational approach
    carries the key of each base relation through outer joins to
    distinguish an empty subquery result (key padded to NULL) from a
    genuine NULL value. *)

open Nra_relational

type t

val create : name:string -> key:string list -> Schema.column list ->
  Row.t array -> t
(** [create ~name ~key cols rows] builds a table.  The columns are
    requalified with [name]; the columns listed in [key] are marked
    [is_key] and forced NOT NULL.
    @raise Invalid_argument if [key] is empty, names an unknown column,
    or the rows violate the schema (type or NOT NULL). *)

val name : t -> string
val schema : t -> Schema.t
val relation : t -> Relation.t

val batch : t -> Batch.t
(** Typed columns over {!relation}'s rows, built with the table; each
    column fills on first use, on the owning domain. *)

val cardinality : t -> int

val key_positions : t -> int array
val key_columns : t -> string list

val with_rows : ?fresh:int array -> t -> Row.t array -> t
(** Same name/schema/key, new contents and a fresh {!batch}.  The rows
    are validated (type, NOT NULL); [?fresh] (ascending positions in
    the new contents) names the rows a write introduces, and only
    those are checked — the others were checked when they entered the
    table.  Default: every row.
    @raise Invalid_argument on a violation, naming the row by its
    position in the new contents. *)

val alias : t -> string -> t
(** [alias t a] is table [t] seen under alias [a]: schema requalified,
    same rows, same {!batch}.  Implements [FROM t AS a].  [alias t
    (name t)] is [t] itself: nothing is copied. *)

val pp : Format.formatter -> t -> unit
