(** Rows by key columns: one flat chained table.

    Entry [j] of a table is row [rows.(j)], or [rows.(sel.(j))] when the
    rows are read through a selection vector.  [head.(b)] is bucket
    [b]'s first entry and [next.(j)] the entry after [j] on its chain.
    Entries are linked from the last to the first, so every chain, and
    so every key's entries, runs in row order: the first entry of a key
    is the earliest row holding it.  Keys are hashed ({!Row.hash_on})
    and compared ({!Value.compare}) in place, so building and probing
    allocate nothing beyond the table.

    The NULL rule is stated at each build:
    - [`Group]: a NULL key cell equals NULL, as SQL grouping, DISTINCT
      and the set operations want;
    - [`Skip]: an entry with a NULL key cell is not linked and a probe
      key with one finds nothing, as an equi-probe wants.

    The caller passes the [head] and [next] arrays, so the same code
    serves buffers borrowed from {!Scratch} for a scope
    ({!with_scratch}) and arrays an index owns ({!build}).

    Used by the hash join, duplicate elimination, GROUP BY, the set
    operations and division, the DML key lookups, the equality index,
    the keyed linking sets and the magic set.  ANALYZE keeps its typed
    table. *)

type nulls = [ `Group | `Skip ]
type t

val buckets : ?buckets:int -> pos:int array -> int -> int
(** The bucket count for [m] entries keyed on [pos]: [?buckets] rounded
    up to a power of two, else 1 when [pos] is empty (one chain), else
    the least power of two at least [m] and 16. *)

val build :
  nulls:nulls ->
  ?sel:int array * int ->
  ?tick:(unit -> unit) ->
  pos:int array ->
  head:int array ->
  buckets:int ->
  next:int array ->
  Row.t array ->
  t
(** [build ~nulls ~pos ~head ~buckets ~next rows] chains [rows] (or the
    [count] of them [?sel = (sel, count)] names) by their [pos] columns.
    [buckets] is a power of two no longer than [head]; [next] holds at
    least one int per entry.  [?tick] is called once per entry. *)

val with_scratch :
  nulls:nulls ->
  ?sel:int array * int ->
  ?buckets:int ->
  ?tick:(unit -> unit) ->
  pos:int array ->
  Row.t array ->
  (t -> 'a) ->
  'a
(** {!build} over arrays borrowed from {!Scratch} for the extent of the
    scope, with {!buckets} buckets. *)

val length : t -> int
(** The number of entries. *)

val linked : t -> int
(** The number of linked entries: all of them under [`Group], the
    NULL-free ones under [`Skip]. *)

val row : t -> int -> Row.t
(** Entry [j]'s row. *)

val first : t -> int array -> Row.t -> int
(** [first t ppos prow] is the first entry whose key equals [prow] read
    at [ppos] (as long as the table's key), or -1. *)

val next_equal : t -> int array -> Row.t -> int -> int
(** [next_equal t ppos prow j] is the entry after [j] whose key equals
    [prow]'s at [ppos], or -1. *)

val first_entry : t -> int -> int
(** The first entry keyed like entry [j]: [j] itself when no earlier
    entry is; -1 when [j] is not linked. *)

val distinct : t -> int
(** The number of distinct linked keys. *)
