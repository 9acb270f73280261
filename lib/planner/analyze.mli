(** Query-block analysis.

    Decomposes a parsed query into the paper's structure: one {e block}
    per SELECT-FROM-WHERE, a tree of blocks connected by {e linking
    operators}, and per block the {e local} conjuncts (referencing only
    that block) and the {e correlated} conjuncts (referencing enclosing
    blocks).  This is the common input to all three executors.

    Restrictions (checked, with informative errors):
    - subquery predicates must be conjuncts of WHERE (possibly under
      NOT, which is normalized away; a subquery under OR is rejected);
    - subquery blocks cannot use GROUP BY / HAVING / ORDER BY / LIMIT;
    - aggregates may appear only in the outer block's SELECT / HAVING /
      ORDER BY, or as the single select item of a subquery — a scalar
      comparison or an IN / θ SOME / θ ALL link over the aggregate's
      one-row result (type JA). *)

open Nra_relational
open Nra_storage

exception Error of string

type binding = {
  uid : string;  (** unique frame qualifier *)
  alias : string;  (** SQL-visible name *)
  source : string option;
      (** the catalog table this binding refers to; [None] for a
          statement-local relation (a CTE), which has no statistics
          and no index *)
  table : Table.t;  (** already re-qualified with [uid] *)
}

type link_op =
  | L_exists
  | L_not_exists
  | L_in of Resolved.rexpr
  | L_not_in of Resolved.rexpr
  | L_quant of Resolved.rexpr * Three_valued.cmpop * [ `Any | `All ]
  | L_scalar of Resolved.rexpr * Three_valued.cmpop
      (** comparison against a scalar subquery (single row/value);
          the subquery's value is the block's [linked_attr] or
          [scalar_agg] *)

type block = {
  id : int;  (** DFS pre-order, root = 1 — the paper's T{_i} numbering *)
  bindings : binding list;
  local : Resolved.rcond list;
  correlated : Resolved.rcond list;
  linked_attr : Resolved.rexpr option;
      (** the subquery's selected expression (for IN / quantified /
          plain scalar linking) *)
  scalar_agg : (Nra_sql.Ast.agg_func * Resolved.rexpr option) option;
      (** when the block is an aggregate subquery: a scalar comparison
          or a type-JA IN / θ SOME / θ ALL over the one-row result *)
  marker : Resolved.rcol;
      (** a primary-key column of the block's first table — NULL after
          outer-join padding iff the block produced no tuple *)
  children : child list;
  (* Structural facts, settled when the block is built: *)
  self_contained : bool;
      (** No block inside the subtree references anything outside it,
          except the block's own correlated predicates.  A
          self-contained subtree can be reduced standalone (the paper's
          §4.2.3/4.2.4, and the precondition of magic
          decorrelation). *)
  static : bool;
      (** The subtree's result cannot depend on the outer tuple: no
          correlated predicate anywhere inside, and the output
          attributes reference only the subtree's own blocks.  A DBMS
          evaluates such a subquery once. *)
  reducible : bool;
      (** Every block in the subtree correlates only to its immediate
          parent, and its linked attribute reads only its own columns:
          the subtree reduces to a derived relation joined to the
          parent (classical unnesting's precondition). *)
  equi : (Resolved.rcol * Resolved.rexpr) list;
      (** The correlated predicates of the shape
          [inner_column = outer_expression], as (inner column, outer
          expression) pairs. *)
  equi_correlation : (Resolved.rcol * Resolved.rexpr) list option;
      (** [Some equi] when every correlated predicate has that shape;
          [None] otherwise, including the uncorrelated case. *)
}

and child = { link : link_op; block : block }

(** {1 Outer-block output processing} *)

type agg_call = {
  func : Nra_sql.Ast.agg_func;
  arg : Resolved.rexpr option;
}

type oexpr =
  | O_expr of Resolved.rexpr
  | O_agg of agg_call
  | O_bin of Nra_sql.Ast.binop * oexpr * oexpr
  | O_neg of oexpr

type ocond =
  | O_true
  | O_cmp of Three_valued.cmpop * oexpr * oexpr
  | O_and of ocond * ocond
  | O_or of ocond * ocond
  | O_not of ocond
  | O_is_null of oexpr
  | O_is_not_null of oexpr

type output = {
  select : (oexpr * string) list;
  distinct : bool;
  group_by : Resolved.rexpr list;
  having : ocond option;
  order_by : (oexpr * [ `Asc | `Desc ]) list;
  limit : int option;
}

type t = {
  root : block;
  output : output;
  blocks : block list;  (** pre-order *)
  depth : int;  (** nesting depth: 0 = flat *)
  linear : bool;
      (** the paper's "linear correlated": every block has at most one
          child and correlates only to its immediate parent *)
  by_uid : (string * binding) list;
}

val analyze :
  ?ctes:(string * Table.t) list -> Catalog.t -> Nra_sql.Ast.query -> t
(** [ctes] binds statement-local relations by name; a FROM name is
    looked up there before the catalog, so a CTE shadows a table.
    @raise Error on unknown tables/columns, ambiguity, or an
    unsupported shape. *)

val analyze_string : Catalog.t -> string -> (t, string) result
(** Parse then analyze; all failures as [Error _]. *)

val binding_of_col : t -> Resolved.rcol -> binding option
(** The binding a resolved column's [uid] refers to — the route from a
    predicate column back to the catalog table whose statistics
    describe it. *)

val col_not_null : t -> Resolved.rcol -> bool
(** Declared NOT NULL? *)

val expr_not_nullable : t -> Resolved.rexpr -> bool
(** Conservatively: can this expression never evaluate to NULL?
    (All columns NOT NULL, no division, no NULL literal.) *)

val block_uids : block -> string list
(** Uids of the block's own bindings. *)

val collect_blocks : block -> block list
(** The subtree's blocks in pre-order (the block itself first). *)

val child_positive : child -> bool
(** Site-level positivity: [is_positive] on the link, except that an
    aggregate-linking (type-JA) child — [scalar_agg <> None] — is never
    positive.  The aggregate of an empty group is a value (COUNT → 0,
    SUM/MIN/MAX/AVG → NULL), so empty groups must reach the linking
    selection: discarding unmatched outer tuples early (σ instead of σ̄,
    or a semijoin) would change the answer. *)

val agg_name : Nra_sql.Ast.agg_func -> string
(** Lower-case SQL name of the aggregate ([count], [sum], …). *)

val pp_block : Format.formatter -> block -> unit
(** Debugging aid: the tree expression of the paper's Section 4
    (blocks, linking and correlated predicate labels). *)
