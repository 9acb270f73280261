(** Columnar batches: typed structure-of-arrays mirrors of relations.

    A batch stores one unboxed array per column ([int array],
    [float array], [string array], bools in [Bytes]) plus a per-column
    null bitmap, so the hot kernels — morsel filter and nest
    partitioning — run column-at-a-time over flat memory instead of
    chasing a [Value.t] pointer and matching a variant tag per cell.
    Rows remain the engine's carrier: kernels use batches to {e decide}
    (selection vectors, key-hash vectors) and then gather the
    {e original} rows by index, which is what makes the columnar path
    bit-identical to row-at-a-time execution at every pool size and
    frame budget.

    Columns are built lazily.  Forcing happens on the owning domain
    only — {!filter_bits} and {!hash_on} force the columns they need
    at compile time, before any [Pool.parallel_chunks] region starts;
    worker domains only ever see plain arrays.  A column is typed only
    when all its non-null cells share one constructor; mixed columns
    (legal under [Ttype.Float] admitting [Int] values) fall back to a
    boxed representation so that {!of_relation} → {!to_relation} is
    structurally exact for every relation.

    See docs/PERF.md ("Columnar batches") for layout and the
    vectorizable predicate subset. *)

(** {1 Toggle}

    [NRA_COLUMNAR] (default on; "0"/"false"/"off"/"no" disable) or
    [--columnar] on the CLI.  Disabling clears the scan cache; every
    kernel then takes its row-at-a-time path. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Null and selection bitmaps} *)

module Bitset : sig
  type t = Bytes.t

  val create : int -> t
  (** All bits clear. *)

  val set : t -> int -> unit
  val get : t -> int -> bool

  val popcount : t -> int
  (** Set bits. *)

  val indices_into : base:int -> t -> int array -> int -> int
  (** [indices_into ~base b dst at] writes the indices of [b]'s set
      bits, plus [base], ascending, into [dst] from [at]; returns the
      next free slot. *)
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

val to_relation : t -> Relation.t
(** Rebuild rows.  [to_relation (of_relation r)] is structurally
    identical to [r] for every value mix, NULLs included. *)

val length : t -> int
val schema : t -> Schema.t

val column : t -> int -> col * Bitset.t
(** Force and return column [i] with its null bitmap (bit set = NULL).
    Owner-domain only (columns are lazy). *)

(** {1 Scan-time cache}

    Keyed on the physical identity of the relation's rows array —
    sound because relations are immutable (DML builds fresh arrays and
    [Table.alias] shares the existing one).  Owner-domain only. *)

val prime : Relation.t -> unit
(** Build (lazily) and cache a batch for a base relation; called at
    scan time by [Frame.block_relation].  No-op when disabled or
    already cached. *)

val find : Relation.t -> t option
val for_relation : Relation.t -> t
(** Cached batch if primed, otherwise a fresh transient one. *)

val drop_cache : unit -> unit

(** {1 Kernel services} *)

val hash_on : t -> int array -> int array * Bitset.t
(** Per-row key-hash vector over the given column positions: element
    [i] equals [Row.hash_on idxs row_i] exactly (same fold, computed
    column-at-a-time through [Value.hash_int]/[hash_float] on unboxed
    cells), and the bitmap flags rows with a NULL in any key position
    ([Row.has_null_on]).  Forces the key columns; call owner-side. *)

val filter_bits :
  Expr.pred -> Relation.t -> (lo:int -> hi:int -> Bitset.t) option
(** {!filter_plan}'s evaluator before it lists positions: [plan ~lo
    ~hi] returns a bitmap of [hi - lo] bits, bit [k] set when row
    [lo + k] satisfies the predicate.  Lets a caller write the
    selection into a buffer it owns ({!Bitset.indices_into}). *)

val filter_plan :
  Expr.pred -> Relation.t -> (lo:int -> hi:int -> int array) option
(** Compile a predicate to a vectorized evaluator.  [Some plan] when
    the whole predicate falls in the vectorizable subset — [Lit3],
    [Cmp] over [Col]/[Const], [Is_null]/[Is_not_null], [In_list],
    [Between], closed under [And]/[Or] — where evaluation is total and
    agrees with [Expr.holds] on every row.  [plan ~lo ~hi] returns the
    ascending indices in [\[lo, hi)] satisfying the predicate (a
    selection vector); safe to call from worker domains once compiled.
    [None] when disabled, on an empty relation, or when any part of
    the predicate is outside the subset ([Not] does not decompose
    under WHERE semantics; [Like] and arithmetic can raise) — callers
    then fall back to [Expr.holds] rows. *)
