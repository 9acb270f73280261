(** Deterministic pseudo-random numbers (splitmix64).

    The generator's output depends only on the seed, so every run of the
    data generator — and therefore every benchmark and test — sees
    identical data, on any platform. *)

type t

val create : int64 -> t

val int : t -> int -> int
(** [int t n] is uniform in [0, n); [n] must be positive. *)

val in_range : t -> int -> int -> int
(** [in_range t lo hi] is uniform in [lo, hi] (inclusive). *)

val bool : t -> float -> bool
(** True with the given probability. *)

val pick : t -> 'a array -> 'a
