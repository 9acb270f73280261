(** The catalog: a mutable registry of tables, their indexes and their
    statistics.

    Indexes are named by the table and column list they cover; the
    executors look indexes up by coverage, mirroring how the paper's
    "System A" picks an index on the correlated/linked attributes when
    one exists.  Every table has a primary-key hash index from its
    registration.  An index is recorded by its columns and its arrays
    are built the first time it is read ({!force}), so registering a
    table, writing to it or creating an index builds nothing. *)

open Nra_relational

type t

val create : unit -> t

val wal : t -> Wal_log.t
(** The catalog's write-ahead log: only {!Wal} reads and appends it. *)

val register : t -> Table.t -> unit
(** Add (or replace) a table with its primary-key hash index.
    Existing secondary indexes of a replaced table are dropped.  Key
    uniqueness is not checked here (see {!update_rows}). *)

val update_rows : ?fresh:int array -> t -> string -> Row.t array -> unit
(** Replace a table's contents, validating types, NOT NULL and key
    uniqueness; its indexes, secondary ones included, are kept unbuilt
    over the new rows.  The DML path.  [?fresh] names the rows the
    write introduces (ascending positions in the new contents; see
    {!Table.with_rows}), every row when it is absent.  Only those rows
    are checked: the others held valid rows and distinct keys before
    the write.  Their keys are chained in borrowed buffers, and every
    other row is probed against them once, so the check costs a hash
    per row and allocates nothing per row.  A duplicate key is reported
    at the least position whose key a smaller position holds, as a
    scan of the whole table would report it.  [~fresh:[||]] (DELETE, WAL
    undo and redo) checks nothing.
    @raise Not_found if the table is absent
    @raise Invalid_argument if the rows violate the schema or duplicate
    a primary key. *)

val drop_table : t -> string -> unit
(** @raise Not_found if absent. *)

val table : t -> string -> Table.t
(** @raise Not_found if absent. *)

val table_opt : t -> string -> Table.t option
val tables : t -> Table.t list
val mem : t -> string -> bool

val generation : t -> string -> int
(** Per-table content version: 0 on first registration, bumped every
    time the table is re-registered or its rows are replaced by DML;
    [-1] if the table is absent.  It restarts at 0 when a dropped table
    is created again. *)

val global_generation : t -> int
(** Monotonic catalog-wide version: bumped on every table registration,
    DML row replacement, drop, index creation or drop, and {!analyze}.  Whole-query caches (the
    [nra.server] plan cache) key on this instead of enumerating the
    tables a plan touches. *)

(** {1 Statistics}

    A table's statistics live in its catalog entry, next to its
    indexes.  {!register} and {!update_rows} start the table without
    any, and {!drop_table} removes them with the table, so a snapshot
    never outlives the rows it describes. *)

val analyze : ?buckets:int -> t -> string -> Table_stats.t
(** Collect and keep statistics for one table (ANALYZE).
    @raise Not_found if the table is absent. *)

val stats : t -> string -> Table_stats.t option
(** The table's statistics; [None] when it was never analyzed since it
    was registered or its rows last changed, or when it is absent. *)

(** {1 Indexes} *)

type 'i index
(** An index of a table's current rows, recorded by its columns. *)

val columns : _ index -> string list
(** The index's columns, in index position order. *)

val force : 'i index -> 'i
(** The index's arrays, built on the first call.  The build runs on
    the calling domain with no guard checkpoint inside it, so call it
    from the owning domain (as the executors do when they compile a
    plan), never from a pool worker. *)

val create_hash_index : t -> table:string -> string list -> unit
val create_sorted_index : t -> table:string -> string list -> unit
(** Record a secondary index on these columns, unless one exists; a new
    index bumps {!global_generation}.  Its arrays are built on first
    {!force}.
    @raise Invalid_argument if a column is unknown. *)

val same_set : string list -> string list -> bool
(** The two lists hold the same columns, counted with multiplicity. *)

val hash_index :
  t -> table:string -> string list -> Hash_index.t index option
(** The hash index on exactly these columns (order-insensitive). *)

val hash_index_covering :
  t -> table:string -> string list -> Hash_index.t index option
(** A hash index whose column set is a non-empty subset of the given
    columns — usable for a partial-key probe followed by a residual
    filter.  Prefers the widest such index. *)

val sorted_index_on :
  t -> table:string -> string -> Sorted_index.t index option
(** A sorted index whose first column is the given one. *)

val drop_indexes : t -> table:string -> unit
(** Drop secondary indexes (keeps the automatic primary-key index);
    bumps {!global_generation} when any was dropped. *)

val pp : Format.formatter -> t -> unit
