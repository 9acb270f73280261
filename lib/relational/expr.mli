(** Physical scalar expressions and predicates.

    Columns are positional: an expression is evaluated against a single
    row, so predicates over a join are evaluated against the concatenated
    row (left columns first).  Translation from named SQL expressions is
    done by the planner. *)

type scalar =
  | Col of int
  | Const of Value.t
  | Add of scalar * scalar
  | Sub of scalar * scalar
  | Mul of scalar * scalar
  | Div of scalar * scalar
  | Neg of scalar

type pred =
  | Lit3 of Three_valued.t
  | Cmp of Three_valued.cmpop * scalar * scalar
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Is_null of scalar
  | Is_not_null of scalar
  | In_list of scalar * Value.t list
      (** SQL IN over literals, with its null subtleties *)
  | Between of scalar * scalar * scalar
  | Like of scalar * string
      (** SQL LIKE with [%] (any run) and [_] (any one character); no
          ESCAPE clause.  NULL operand → Unknown.
          @raise Value.Type_error on a non-string operand. *)

val eval_scalar : Row.t -> scalar -> Value.t
val eval_pred : Row.t -> pred -> Three_valued.t

val holds : pred -> Row.t -> bool
(** [WHERE] semantics: true iff the predicate evaluates to [True]. *)

val true_ : pred
val conj : pred list -> pred
val conjuncts : pred -> pred list
(** Flatten nested [And]s. *)

val scalar_cols : scalar -> int list
val pred_cols : pred -> int list
(** Column positions an expression reads (sorted, no duplicates). *)

val shift_scalar : int -> scalar -> scalar
val shift_pred : int -> pred -> pred
(** Add an offset to every column index — used to move a predicate from
    a relation's frame into the right side of a join frame. *)

val remap_pred : (int -> int) -> pred -> pred

(** {1 Join analysis} *)

val split_equi : left_arity:int -> pred ->
  (int * int) list * pred list
(** Decompose a join predicate (over the concatenated frame) into
    equi-conjuncts [(left_pos, right_pos)] — right positions given in the
    {e right} relation's own frame — and the remaining residual
    conjuncts (still over the concatenated frame). *)

val like_match : pattern:string -> string -> bool
(** The LIKE matcher itself, exposed for tests. *)

(** {1 Simplification} *)

val fold_scalar : scalar -> scalar
val fold_pred : pred -> pred
(** Constant folding and boolean simplification (3VL-exact on values):
    [1 + 2 → 3], [Cmp] of constants → a truth literal, [AND]/[OR]/[NOT]
    over literals collapse, [TRUE AND p → p], and so on.  A constant
    subexpression whose evaluation would raise is left in place (never
    folded into a wrong value), though boolean simplification may
    eliminate a sibling branch entirely — the same leniency a
    short-circuiting evaluator shows. *)

val pp_pred : Format.formatter -> pred -> unit
