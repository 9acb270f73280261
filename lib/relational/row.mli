(** Tuples (rows) are value arrays; this module collects the positional
    operations the physical operators need.  All comparison/hash
    functions here use the {e total} order of {!Value} (NULL = NULL), as
    required for grouping, sorting and duplicate elimination. *)

type t = Value.t array

val project : t -> int list -> t
val project_arr : t -> int array -> t
val concat : t -> t -> t
val nulls : int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Keyed operations} — over a projection of positions *)

val compare_on : int array -> t -> t -> int
val equal_on : int array -> t -> t -> bool
val hash_on : int array -> t -> int

val has_null_on : int array -> t -> bool
(** Any NULL among the given positions?  Equi-join keys containing NULL
    never match. *)

val pp : Format.formatter -> t -> unit
