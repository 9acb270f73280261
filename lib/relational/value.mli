(** SQL values, including [NULL].

    Values are the atoms of the (nested) relational model.  Every
    comparison involving [Null] is three-valued (see {!Three_valued});
    this module only provides the {e total} structural operations needed
    for grouping, hashing and sorting, where SQL semantics require that
    [NULL] compares equal to itself (as in [GROUP BY] and [ORDER BY]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of int  (** days since 1970-01-01; range-comparable like an int *)

val is_null : t -> bool

(** {1 Total structural order}

    Used for sorting, grouping and set operations.  [Null] sorts first and
    is equal to itself.  Values of distinct runtime types are ordered by an
    arbitrary but fixed type rank; well-typed plans never compare values of
    different types, but the total order keeps sorting robust.  [Int] and
    [Float] compare by their exact values (NaN below every number), so
    {!equal} is an equivalence and equal values {!hash} alike. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val compare_int_float : int -> float -> int
(** [compare_int_float i f = compare (Int i) (Float f)]. *)

val hash_int : int -> int
(** [hash_int i = hash (Int i)] without constructing the value — and,
    for [|i| < 2^53], without the intermediate float the boxed path
    used to allocate. *)

val hash_float : float -> int
(** [hash_float f = hash (Float f)]; agrees with {!hash_int} on every
    int/float pair that {!compare} makes equal. *)

val hash_string : string -> int
(** [hash_string s = hash (String s)] without constructing the value. *)

(** {1 Three-valued comparison}

    [cmp3 a b] is [None] when either side is [Null] (SQL Unknown),
    otherwise [Some c] with [c] the sign of the comparison.  [Int] and
    [Float] compare numerically across the two types. *)

val cmp3 : t -> t -> int option

(** {1 Arithmetic}

    NULL-propagating; [Int]/[Float] promote to [Float] when mixed.
    Dates support interval arithmetic: [date ± int] is a date shifted by
    that many days, [date - date] the signed day count.
    @raise Type_error on other non-numeric operands. *)

exception Type_error of string

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** Division by zero yields [Null] (the forgiving option; a DBMS would
    raise a runtime error). *)
val div : t -> t -> t
val neg : t -> t

(** {1 Dates} *)

val date_of_string : string -> t
(** [date_of_string "1994-03-17"] parses an ISO date into [Date days].
    @raise Type_error on malformed input. *)

val string_of_date : int -> string

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

