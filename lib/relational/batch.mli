(** Columnar batches: typed structure-of-arrays mirrors of relations.

    A batch stores one unboxed array per column ([int array],
    [float array], [string array], bools in [Bytes]) plus a per-column
    null bitmap, so the morsel filter runs column-at-a-time over flat
    memory instead of chasing a [Value.t] pointer and matching a
    variant tag per cell.  Rows remain the engine's carrier: the filter
    uses a batch to {e decide} (a selection vector) and then gathers
    the {e original} rows by index, which is what makes the columnar
    path bit-identical to row-at-a-time execution at every pool size
    and frame budget.

    Every base table owns one batch over its rows
    ([Nra_storage.Table.batch]); any other relation is wrapped in a
    transient one where it is filtered.  Columns are built lazily.
    Forcing happens on the owning domain only — {!filter} forces the
    columns it needs at compile time, before any
    [Pool.parallel_chunks] region starts; worker domains only ever see
    plain arrays.  A column is typed only when all its non-null cells
    share one constructor; mixed columns (legal under [Ttype.Float]
    admitting [Int] values) fall back to a boxed representation so that
    {!of_relation} → {!to_relation} is structurally exact for every
    relation.

    See docs/PERF.md ("Columnar batches") for layout and the
    vectorizable predicate subset.  Predicates outside that subset
    run row-at-a-time through [Expr.holds]. *)

(** {1 Null bitmaps} *)

module Bitset : sig
  type t = Bytes.t

  val get : t -> int -> bool
  (** Bit [i]. *)

  val popcount : t -> int
  (** Set bits. *)
end

(** {1 Batches} *)

type col =
  | Ints of int array
  | Floats of float array
  | Strings of string array
  | Bools of Bytes.t  (** one byte per cell, ['\001'] = true *)
  | Dates of int array
  | Boxed of Value.t array
      (** mixed-constructor columns: exact but unvectorized *)

type t

val of_relation : Relation.t -> t
(** Wrap a relation; columns build lazily on first access. *)

val column_of_values : Value.t array -> col * Bitset.t
(** One column built from its values, typed by the same rule as a
    relation's columns (used where a column is not part of a
    relation, e.g. statistics over a value list). *)

val col_length : col -> int
(** Cells in a column. *)

val to_relation : t -> Relation.t
(** Rebuild rows.  [to_relation (of_relation r)] is structurally
    identical to [r] for every value mix, NULLs included. *)

val length : t -> int

val column : t -> int -> col * Bitset.t
(** Force and return column [i] with its null bitmap (bit set = NULL).
    Owner-domain only (columns are lazy). *)

(** {1 Kernel services} *)

val filter :
  Expr.pred -> t -> (int array -> lo:int -> hi:int -> int) option
(** Compile a predicate to a vectorized selection.  [Some select] when
    the whole predicate falls in the vectorizable subset — [Lit3],
    [Cmp] over [Col]/[Const], [Is_null]/[Is_not_null], [In_list],
    [Between], closed under [And]/[Or] — where evaluation is total and
    agrees with [Expr.holds] on every row.  [select sel ~lo ~hi] writes
    the positions in [\[lo, hi)] that satisfy the predicate, ascending,
    into [sel.(lo)], [sel.(lo + 1)], ... and returns the end of that
    list.  It writes no slot of [sel] outside [\[lo, hi)], so chunks
    of one buffer can be selected from worker domains once compiled.  Compiling forces the columns the predicate
    reads (owner domain only).  [None] when any part of the predicate
    is outside the subset ([Not] does not decompose under WHERE
    semantics; [Like] and arithmetic can raise): the caller then
    evaluates the whole predicate with [Expr.holds]. *)
