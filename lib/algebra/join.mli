(** Joins.

    The paper's approach needs exactly two physical joins — hash
    equi-join and left outer hash join — while the classical-unnesting
    baseline additionally uses semijoin and antijoin, and the
    nested-iteration baseline uses index nested loops.  All variants
    share one entry point that extracts equi-conjuncts as hash keys and
    evaluates the residual conjuncts in 3VL on each candidate pair; with
    no equi-conjunct the join degrades to a nested loop.

    NULL join keys never match (SQL equi-join semantics).  For
    [Left_outer], an unmatched left row is padded with NULLs on the
    right — including the right relation's key columns, which is what
    lets the nested relational operators recognize empty groups. *)

open Nra_relational

type kind =
  | Inner
  | Left_outer
  | Semi   (** left rows with at least one match; left schema only *)
  | Anti   (** left rows with no match (condition never [True]);
               left schema only *)

val join : kind -> on:Expr.pred -> Relation.t -> Relation.t -> Relation.t
(** [on] is over the concatenated frame (left columns then right
    columns), even for [Semi]/[Anti]. *)

val matches : on:Expr.pred -> Relation.t -> Relation.t -> Row.t list array
(** The probe primitive every variant shares: for each left row (by
    position), the right rows that satisfy [on], in right (build)
    order.  [join kind] is exactly this, emitted per left row in left
    order.  Picks the same physical variant as [join] (nested loop,
    serial or parallel hash, grace/hybrid under a frame budget), with
    the same charges, ticks and spill traffic. *)

val nested_loop : kind -> on:Expr.pred -> Relation.t -> Relation.t ->
  Relation.t
(** Reference implementation; used by tests to validate [join] and by
    the baseline executor when no index applies. *)

val stats_probes : int ref
(** Total hash probes since program start — a cheap cost counter used by
    benchmark sanity checks. *)
