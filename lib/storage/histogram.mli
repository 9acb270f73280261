(** Equi-depth histograms over {!Nra_relational.Value} columns.

    Built from the non-NULL values of a column ({!Col_stats.of_column}):
    the sorted values are cut into [buckets] ranges holding (as nearly
    as possible) the same number of rows, and only the bucket
    boundaries are retained.  Range
    selectivities interpolate linearly inside a bucket for numeric-like
    values (ints, floats, dates, bools) and fall back to the bucket
    midpoint for strings — equi-depth boundaries carry most of the
    information either way. *)

open Nra_relational

type t

val equi_depth : ?buckets:int -> int -> (int -> Value.t) -> t option
(** [equi_depth len nth] over a column's [len] non-NULL values in
    ascending order, [nth p] being the value at position [p]; [None]
    when [len = 0].  [nth] is called at ascending positions, once per
    boundary, so it may walk a run-length form of the sorted values.
    Default 32 buckets; never more than [len]. *)

val buckets : t -> int

val bounds : t -> Value.t array
(** The [buckets + 1] boundaries, ascending; [bounds.(0)] is the column
    minimum and the last element the maximum. *)

val frac_below : t -> Value.t -> float
(** Continuous approximation of [P(x <= v)] over the non-NULL values:
    0 below the minimum, 1 at or above the maximum, interpolated within
    the covering bucket otherwise. *)

val frac_between : t -> Value.t -> Value.t -> float
(** [P(lo <= x <= hi)], clamped to [0, 1]. *)
