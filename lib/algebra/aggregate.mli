(** Grouping and aggregation (γ).

    Grouping uses the total value order, so NULL group keys collapse into
    one group (SQL [GROUP BY] semantics).  Aggregates ignore NULL inputs;
    [Count_star] counts rows.  Over an empty input with no grouping keys
    SQL returns a single row (COUNT = 0, other aggregates NULL) —
    [global] implements that case. *)

open Nra_relational

type func =
  | Count_star
  | Count of Expr.scalar
  | Sum of Expr.scalar
  | Avg of Expr.scalar
  | Min of Expr.scalar
  | Max of Expr.scalar

type spec = { func : func; as_name : string }

val group_by : keys:int list -> spec list -> Relation.t -> Relation.t
(** Output schema: the key columns, then one column per aggregate (table
    qualifier [""], name [as_name]).  Groups appear in order of first
    occurrence. *)

val global : spec list -> Relation.t -> Relation.t
(** Aggregation without keys: always exactly one output row. *)

(** {1 Running aggregates}

    One aggregate stepped value by value, left to right: [group_by],
    [global] and the linking selection's type-JA verdict
    ({!Nra_nested.Link_pred}) all fold through it, so an aggregate's
    value — including a float sum's dependence on element order — is
    computed the same way everywhere. *)

type acc

val start : func -> acc
val reset : acc -> unit
(** Back to the empty aggregate, for reuse on the next group. *)

val step : acc -> Value.t -> unit
(** Step one element by its argument value (ignored by [Count_star];
    NULL is skipped by the others). *)

val arg_value : func -> Row.t -> Value.t
(** The argument of [func] evaluated on a row ([Null] for
    [Count_star]). *)

val finish : acc -> Value.t
(** COUNT of nothing is 0; SUM/AVG/MIN/MAX of nothing are NULL. *)
