(** Flat relational schemas.

    A column is identified by an optional table qualifier and a name.
    Wide intermediate relations produced by unnesting keep the qualifier
    of the base table each column came from, so that the planner can
    refer to ["orders.o_orderkey"] unambiguously after joins.

    [is_key] marks a column that is (part of) the primary key of its base
    table.  The paper's approach relies on carrying such a column through
    outer joins: a [NULL] key identifies a padded ("empty subquery")
    tuple. *)

type column = {
  table : string;  (** qualifier; [""] for computed columns *)
  name : string;
  ty : Ttype.t;
  not_null : bool;  (** declared NOT NULL constraint *)
  is_key : bool;
}

type t

val column : ?table:string -> ?not_null:bool -> ?is_key:bool -> string ->
  Ttype.t -> column

val of_columns : column list -> t
val columns : t -> column array
val arity : t -> int
val col : t -> int -> column

val append : t -> t -> t
(** Schema of a join/product: left columns then right columns. *)

val project : t -> int list -> t

val rename_table : string -> t -> t
(** [rename_table alias s] requalifies every column, as [FROM t AS alias]
    does. *)

(** {1 Name resolution} *)

exception Ambiguous of string
exception Not_found_col of string

val find : t -> ?table:string -> string -> int
(** [find s ~table name] resolves a (possibly qualified) column reference
    to its index.
    @raise Ambiguous when an unqualified name matches several columns
    @raise Not_found_col when nothing matches. *)

val find_opt : t -> ?table:string -> string -> int option
val mem : t -> ?table:string -> string -> bool

val qualified_name : column -> string
(** ["table.name"], or just ["name"] when unqualified. *)

val equal_names : t -> t -> bool
(** Same qualified names, positionally (types not compared). *)

val pp : Format.formatter -> t -> unit
