(** Unary physical operators: selection, projection, product, limit. *)

open Nra_relational

val select : ?batch:Batch.t -> Expr.pred -> Relation.t -> Relation.t
(** σ — keeps rows whose predicate is [True] (3VL): {!selection}'s
    rows, gathered. *)

val selection :
  ?batch:Batch.t -> Expr.pred -> Relation.t -> (int array -> int -> 'a) ->
  'a
(** [selection pred rel f] evaluates the predicate once and calls
    [f sel count]: [count] rows pass, and [sel.(0)] ... [sel.(count - 1)]
    are their positions, ascending.  [sel] is borrowed from
    {!Nra_relational.Scratch} and valid only inside [f]; no row is
    gathered.  [batch] holds the relation's typed columns (a base
    table's {!Nra_storage.Table.batch}); without it a transient batch is
    wrapped around the rows.  The whole predicate runs through the
    typed loops of {!Batch.filter} when it compiles to that subset, and
    otherwise through [Expr.holds] row by row in position order, so the
    first error raised is the one a serial scan meets first. *)

val project_cols : int list -> Relation.t -> Relation.t
(** π over column positions (duplicates preserved — SQL bag π). *)

val project_exprs :
  ?sel:int array * int -> (Expr.scalar * Schema.column) list -> Relation.t ->
  Relation.t
(** Generalized π: each output column is a computed expression.  With
    [~sel:(sel, count)] only rows [sel.(0)] ... [sel.(count - 1)] are
    projected, in that order, as if the relation had been gathered
    through them first; no gathered row is built. *)

val product : Relation.t -> Relation.t -> Relation.t
(** Cartesian product; output schema is left ++ right. *)

val distinct : Relation.t -> Relation.t

val limit : int -> Relation.t -> Relation.t
