(** Name-resolved expressions and flat conditions.

    After analysis every column reference carries the {e unique
    qualifier} ([uid]) of its table binding and the id of the query
    block that binding belongs to.  Uids disambiguate self-joins and
    same-alias bindings in different blocks; the executors build frame
    schemas whose table qualifiers are uids, so translation to physical
    {!Nra_relational.Expr} is a plain schema lookup. *)

open Nra_relational

type rcol = { uid : string; col : string; block_id : int }

type rexpr =
  | RCol of rcol
  | RLit of Value.t
  | RBin of Nra_sql.Ast.binop * rexpr * rexpr
  | RNeg of rexpr

(** Flat (subquery-free) conditions; subqueries are factored out into
    block children by the analyzer. *)
type rcond =
  | RTrue
  | RCmp of Three_valued.cmpop * rexpr * rexpr
  | RAnd of rcond * rcond
  | ROr of rcond * rcond
  | RNot of rcond
  | RIs_null of rexpr
  | RIs_not_null of rexpr
  | RBetween of rexpr * rexpr * rexpr
  | RIn_list of rexpr * Value.t list
  | RLike of rexpr * string

val expr_cols : rexpr -> rcol list
val cond_cols : rcond -> rcol list

val expr_blocks : rexpr -> int list
val cond_blocks : rcond -> int list
(** Distinct block ids referenced, ascending. *)

val expr_least_block : rexpr -> int
val cond_least_block : rcond -> int
(** The least block id referenced ([max_int] when none): the head of
    [expr_blocks] / [cond_blocks], without building the list. *)

exception Unbound of string
(** A column's (uid, name) pair is missing from the frame schema —
    an internal error if analysis succeeded. *)

val to_scalar : Schema.t -> rexpr -> Expr.scalar
val to_pred : Schema.t -> rcond -> Expr.pred

val equal_expr : rexpr -> rexpr -> bool
(** Structural equality — used to match GROUP BY keys against SELECT /
    HAVING occurrences. *)

val pp_expr : Format.formatter -> rexpr -> unit
val pp_cond : Format.formatter -> rcond -> unit
