(** Abstract syntax of the SQL subset.

    The subset covers everything the paper's query class needs —
    SELECT/FROM/WHERE blocks nested to any depth through EXISTS /
    NOT EXISTS / IN / NOT IN / θ SOME/ANY / θ ALL, correlation to any
    enclosing block — plus the flat-query conveniences used by the
    examples (DISTINCT, ORDER BY, GROUP BY/HAVING with aggregates,
    LIMIT, BETWEEN, IN value-lists, IS [NOT] NULL, scalar-subquery
    comparison). *)

open Nra_relational

type cmpop = Three_valued.cmpop

type quantifier = Any | All
(** [SOME] parses as [Any]. *)

type binop = Add | Sub | Mul | Div

type agg_func = Count_star | Count | Sum | Avg | Min | Max

type expr =
  | Col of string option * string  (** optionally qualified column *)
  | Lit of Value.t
  | Binop of binop * expr * expr
  | Neg of expr
  | Agg of agg_func * expr option
      (** aggregate call; only legal in SELECT / HAVING / ORDER BY of a
          grouped or globally-aggregated block *)

type select_item =
  | Star
  | Table_star of string  (** [t.*] *)
  | Sel_expr of expr * string option  (** expression AS alias *)

type cond =
  | True_
  | Cmp of cmpop * expr * expr
  | And of cond * cond
  | Or of cond * cond
  | Not of cond
  | Is_null of expr
  | Is_not_null of expr
  | Between of expr * expr * expr
  | In_list of expr * Value.t list
  | Like of expr * string  (** pattern with [%] and [_]; no ESCAPE *)
  | Exists of query
  | Not_exists of query
  | In_query of expr * query
  | Not_in_query of expr * query
  | Quant_cmp of expr * cmpop * quantifier * query
  | Scalar_cmp of expr * cmpop * query
      (** comparison against a scalar (single-value) subquery *)

and query = {
  distinct : bool;
  select : select_item list;
  from : (string * string option) list;  (** (table, alias) *)
  where : cond option;
  group_by : expr list;
  having : cond option;
  order_by : (expr * [ `Asc | `Desc ]) list;
  limit : int option;
}

val simple_query : ?distinct:bool -> select:select_item list ->
  from:(string * string option) list -> ?where:cond -> unit -> query

(** {1 Statements}

    A statement combines SELECT queries with set operations.
    [INTERSECT] binds tighter than [UNION]/[EXCEPT]; all three are
    left-associative.  An ORDER BY / LIMIT written after the last
    component applies to the whole combination (hoisted by the
    evaluator). *)

type setop = { op : [ `Union | `Intersect | `Except ]; all : bool }

type statement =
  | Select of query
  | Setop of setop * statement * statement

(** {1 Commands} — DDL and DML for the CLI/REPL story *)

type column_def = {
  cd_name : string;
  cd_type : Ttype.t;
  cd_not_null : bool;
}

type command =
  | Cmd_query of statement
  | Create_table of {
      table : string;
      columns : column_def list;
      key : string list;  (** PRIMARY KEY — mandatory in this engine *)
    }
  | Drop_table of string
  | Insert_values of string * Value.t list list
  | Insert_select of string * statement
  | Delete of string * cond option
      (** DELETE FROM t [WHERE …] — the condition may contain
          subqueries *)
  | With_query of (string * statement) list * statement
      (** WITH n AS (…), … SELECT …: each common table expression is
          evaluated once, in order, and visible to later ones and to
          the main statement; the parser rejects a repeated name *)
  | Update of string * (string * expr) list * cond option
      (** UPDATE t SET c = e, … [WHERE …]; assignments see the
          pre-update row, the WHERE may contain subqueries *)
  | Analyze of string option
      (** ANALYZE [t] — collect optimizer statistics for one table, or
          for every table in the catalog when no name is given *)

(** {1 Structure} *)

val subqueries : cond -> query list
(** Immediate subqueries of a condition (not recursive). *)

val query_depth : query -> int
(** 0 for a flat query; 1 + max over subqueries otherwise (the paper's
    "n-level nested query"). *)

val is_flat : query -> bool

val cond_conjuncts : cond -> cond list

(** {1 Printing} — emits re-parsable SQL *)

val to_string : query -> string
val statement_to_string : statement -> string
