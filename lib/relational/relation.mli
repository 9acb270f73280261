(** Flat relations: a schema plus an array of rows.

    SQL relations are multisets; we keep physical order (useful for
    stable tests) and provide explicit [dedup]/set operations where set
    semantics are needed. *)

type t

val make : Schema.t -> Row.t array -> t
(** @raise Invalid_argument if any row's arity differs from the schema's. *)

val rename : t -> Schema.t -> t
(** [rename t s] is [t]'s rows (shared, not copied or re-checked) under
    schema [s], which must have the same arity: O(1), where {!make}
    checks every row.
    @raise Invalid_argument if the arities differ. *)

val of_rows : Schema.t -> Row.t list -> t
val schema : t -> Schema.t
val rows : t -> Row.t array
val cardinality : t -> int
val is_empty : t -> bool

val typecheck : ?only:int array -> t -> (unit, string) result
(** Verify every value inhabits its declared column type and that
    NOT NULL columns hold no NULL.  [?only] (ascending row positions)
    restricts the check to those rows, as a write that keeps the other
    rows wants; the error names the first violation as
    ["row %d, column %s: ..."] with the row's position in [t].  A
    passing check allocates nothing. *)

(** {1 Bulk operations} — order-preserving where meaningful *)

val filter : (Row.t -> bool) -> t -> t
val map_rows : Schema.t -> (Row.t -> Row.t) -> t -> t

val gather : t -> int array -> int -> t
(** [gather t sel count]: the rows of [t] at positions [sel.(0)] ...
    [sel.(count - 1)], in that order, under [t]'s schema.  [sel] may be
    longer than [count]. *)

val project : t -> int list -> t
val append : t -> t -> t

val sort_by : int array -> t -> t
(** Stable sort on the given column positions (total value order,
    NULLs first). *)

val dedup : t -> t
(** Remove duplicate rows, keeping first occurrences. *)

val sorted_rows : t -> Row.t list
(** All rows in total order — canonical form for order-insensitive
    multiset comparison in tests. *)

val equal_bag : t -> t -> bool
(** Multiset equality of rows (schemas not compared). *)

val equal_set : t -> t -> bool
(** Set equality of rows. *)

(** {1 I/O} *)

val pp : Format.formatter -> t -> unit
(** Aligned table with a header of qualified column names. *)

val to_csv : t -> string
val of_csv : Schema.t -> string -> (t, string) result
(** Parse CSV produced by [to_csv]; values are read according to the
    declared column types, the literal [NULL] denotes null. *)
