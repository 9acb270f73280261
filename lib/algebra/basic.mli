(** Unary physical operators: selection, projection, product, limit. *)

open Nra_relational

val select : ?batch:Batch.t -> Expr.pred -> Relation.t -> Relation.t
(** σ — keeps rows whose predicate is [True] (3VL).  [batch] holds the
    relation's typed columns (a base table's {!Nra_storage.Table.batch});
    without it a transient batch is wrapped around the rows. *)

val selection :
  ?batch:Batch.t -> Expr.pred -> Relation.t ->
  (int * (int array -> unit)) option
(** [select]'s columnar path as positions.  [Some (count, write)] when
    the predicate compiles to the columnar subset
    ({!Batch.filter_bits}): [count] rows pass, and [write sel] writes
    their positions, ascending, into [sel.(0)] ... [sel.(count - 1)],
    gathering no row.  The predicate is evaluated once, before
    [selection] returns, with the same morsel split (so the same
    checkpoints) as [select]. *)

val project_cols : int list -> Relation.t -> Relation.t
(** π over column positions (duplicates preserved — SQL bag π). *)

val project_exprs : (Expr.scalar * Schema.column) list -> Relation.t ->
  Relation.t
(** Generalized π: each output column is a computed expression. *)

val product : Relation.t -> Relation.t -> Relation.t
(** Cartesian product; output schema is left ++ right. *)

val distinct : Relation.t -> Relation.t

val limit : int -> Relation.t -> Relation.t
