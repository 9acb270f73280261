(** Linking predicates — the paper's Definition 4.

    A linking predicate compares an attribute of the outer (flat) part of
    a nested tuple against the {e set} of values of an attribute of one
    of its subrelations: [A θ SOME {B}], [A θ ALL {B}], or tests the set
    for emptiness ([{B} = ∅] / [{B} ≠ ∅], the EXISTS forms).

    SQL linking operators map onto these as:
    - [IN]        → [= SOME];   [NOT IN] → [<> ALL]
    - [θ ANY/SOME]→ [θ SOME];   [θ ALL]  → [θ ALL]
    - [EXISTS]    → [≠ ∅];      [NOT EXISTS] → [= ∅]
    - aggregate subqueries (type JA, [A θ (SELECT agg(B) …)], also via
      [IN]/[SOME]/[ALL]) → [Agg]
    - scalar subqueries without an aggregate ([A θ (SELECT B …)]) →
      [Scalar]

    This module is the engine's only implementation of the verdict:
    {!Grouped.select} and every executor decide a link through the same
    fold.  Whether a site may discard (σ) or must pad (σ̄) is not decided
    here but by the planner's positivity rule
    ([Nra_planner.Analyze.child_positive]).

    Evaluation is three-valued: [x θ ALL ∅ = True], [x θ SOME ∅ = False],
    and a NULL on either side of an element comparison contributes
    Unknown — so [5 > ALL {2,3,4,NULL}] is Unknown, the motivating
    example of the paper's Section 2.

    The {e marker} discipline: after an outer join, a group that had no
    join partner holds a single padded element whose carried primary key
    is NULL.  Callers pass the marker position so such elements are
    excluded from the set — this implements the paper's "∨ T.L is null"
    side conditions and its rule that the linking selection "only
    compares the linking attribute to the linked attribute whose
    corresponding primary key is not null". *)

open Nra_relational

type quant = Some_ | All

type t =
  | Quant of Expr.scalar * Three_valued.cmpop * quant * int
      (** [Quant (a, θ, q, b)]: [a] is evaluated on the outer frame; [b]
          is the linked attribute's position in the element frame. *)
  | Non_empty
  | Is_empty
  | Agg of Expr.scalar * Three_valued.cmpop * Nra_algebra.Aggregate.func
      (** Aggregate linking (type JA), e.g. [A θ MAX{B}]: the element
          set is collapsed to the aggregate's single value — COUNT of
          the empty set is 0, SUM/AVG/MIN/MAX of it are NULL — and [A θ
          v] is one three-valued comparison.  [IN]/[θ SOME]/[θ ALL]
          against a one-row aggregate subquery all reduce to this. *)
  | Scalar of Expr.scalar * Three_valued.cmpop * int
      (** [Scalar (a, θ, b)]: [a θ (SELECT b …)] — no element is
          Unknown, one element [e] is [a θ e.(b)], and a second element
          fails with ["scalar subquery returned more than one row"]. *)

(** {1 The verdict as a fold}

    A linking predicate is decided by one left-to-right pass over a
    group's elements.  Callers that never build an element row step the
    fold with each element's {e linked value} — the attribute a
    [Quant]/[Scalar] compares, the argument an [Agg] aggregates (any
    value for the EXISTS forms and [Count_star]); marker-null padding
    elements are the caller's to skip.  A [fold] is mutable and reused:
    [start] it once per group. *)

type fold

val fold : t -> fold
val start : fold -> outer:Row.t -> unit
(** Begin a group: evaluate the outer side on [outer], empty the set. *)

val step : fold -> Value.t -> unit
(** Add one element by its linked value.  Raises [Failure] on a
    [Scalar] predicate's second element. *)

val step_elem : fold -> marker:int option -> Row.t -> unit
(** Step one element row by its linked value (position [b] of
    [Quant]/[Scalar], the aggregate's argument for [Agg]); skipped when
    its [marker] position holds NULL. *)

val decided : fold -> bool
(** No further element can change the verdict (EXISTS after one
    element, SOME once True, ALL once False): a caller may stop
    stepping.  Never true for [Agg] or [Scalar]. *)

val finish : fold -> Three_valued.t

val outer_free : t -> bool
(** Stepping never reads the outer side (the EXISTS forms, [Agg]): one
    set can be stepped once, from [clear], and decided by [verdict]
    against any number of outer tuples. *)

val clear : fold -> unit
(** Empty the set without an outer tuple. *)

val verdict : fold -> outer:Row.t -> Three_valued.t
(** Decide the set stepped so far against [outer], leaving it as it is.
    Only meaningful when [outer_free]. *)
