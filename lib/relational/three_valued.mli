(** SQL's three-valued logic.

    Predicates over values containing [NULL] evaluate to [Unknown];
    [WHERE] keeps a tuple only when its condition is [True].  The linking
    predicates of the paper ([θ SOME], [θ ALL], set emptiness) are
    quantified extensions provided by {!Nra_nested.Link_pred}; this
    module gives the propositional core and the comparison lifting. *)

type t = True | False | Unknown

val of_bool : bool -> t

val to_bool : t -> bool
(** SQL [WHERE] coercion: [True] is [true]; [False] and [Unknown] are
    [false]. *)

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t

val conj : t list -> t
(** n-ary conjunction; [conj [] = True]. *)

val disj : t list -> t
(** n-ary disjunction; [disj [] = False]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Lifted comparisons} *)

type cmpop = Eq | Neq | Lt | Le | Gt | Ge

val cmpop_to_string : cmpop -> string

val negate_op : cmpop -> cmpop
(** The complement: [negate_op Lt = Ge], etc.  Used by classical
    unnesting to turn [θ ALL] into an antijoin on the complement. *)

val flip_op : cmpop -> cmpop
(** Argument swap: [a θ b] iff [b (flip_op θ) a]. *)

val cmp : cmpop -> Value.t -> Value.t -> t
(** Three-valued comparison of two values; [Unknown] if either is
    [NULL]. *)
