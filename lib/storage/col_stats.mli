(** Per-column statistics: the unit ANALYZE collects.

    Beyond the textbook quartet (row count, NULL count, distinct-value
    count, min/max) and the equi-depth histogram, a column carries a
    {e clustering} statistic, [pages_per_value]: the average number of
    distinct simulated pages (at {!Iosim}'s current
    [rows_per_page]) that hold the rows of one distinct value.  It is
    ≈1 when equal values are physically contiguous (lineitem rows of one
    order) and approaches the per-value row count when they are
    scattered (lineitem rows of one part) — exactly the quantity an
    index-nested-loop cost model needs to price rowid fetches through
    the buffer cache. *)

open Nra_relational

type t = {
  rows : int;  (** total rows, NULLs included *)
  nulls : int;
  ndv : int;  (** distinct non-NULL values under [Value.equal] *)
  min_v : Value.t option;  (** None iff all values are NULL *)
  max_v : Value.t option;
  pages_per_value : float;  (** see above; 0 when the column is all NULL *)
  hist : Histogram.t option;
}

type work
(** Buffers {!of_column} fills, reused across the calls given the same
    [work]: one per table, so a table's columns share them and they are
    garbage once the table is analyzed. *)

val work : unit -> work

val of_column : ?buckets:int -> work -> Batch.col * Batch.Bitset.t -> t
(** From a typed column and its null bitmap ({!Batch.column}), cells in
    physical row order (position = rowid, which is what gives
    [pages_per_value] its meaning).  One pass groups the non-NULL rows
    by the engine's equality ([Value.equal]); only the distinct keys are
    then sorted, and min/max and the histogram's bounds are read off
    the sorted groups. *)

val collect : ?buckets:int -> Value.t array -> t
(** {!of_column} over a column given as its values. *)

val null_frac : t -> float

val eq_sel : t -> float
(** Selectivity of [col = <non-null literal>] among {e all} rows:
    [(1 - null_frac) / ndv]. *)

val sel_cmp : t -> Three_valued.cmpop -> Value.t -> float * float
(** [(p_true, p_unknown)] of [col θ v] over a random row: the 3VL
    selectivity pair.  Comparisons against NULL are [(0, 1)]; otherwise
    [p_unknown = null_frac] and [p_true] comes from the histogram (or
    min/max interpolation, or 1/ndv for equality). *)

val pp : Format.formatter -> t -> unit
