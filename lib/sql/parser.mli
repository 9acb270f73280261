(** Recursive-descent parser for the SQL subset of {!Ast}. *)

exception Parse_error of string

type located_error = {
  message : string;
  offset : int option;  (** byte offset of the offending token *)
  excerpt : string;
      (** a one-line window of the query with a caret under the offset;
          empty when there is no offset *)
}

val excerpt : string -> int -> string
(** [excerpt src pos] renders the caret excerpt used in
    {!located_error}. *)

val render_error : located_error -> string
(** ["<message> at offset <n>\n  <query excerpt>\n  ^"]. *)

val parse_command_located : string -> (Ast.command, located_error) result

val parse : string -> Ast.query
(** A single SELECT query.
    @raise Parse_error (or {!Lexer.Lex_error}) on malformed input. *)

val parse_result : string -> (Ast.query, string) result
(** Error-returning variant; lex and parse errors become messages. *)

val parse_statement : string -> Ast.statement
(** A statement: SELECT queries combined with
    [UNION / INTERSECT / EXCEPT [ALL]] (INTERSECT binds tighter;
    parentheses override).  Subqueries remain plain SELECTs. *)

val parse_command : string -> Ast.command
(** A statement, or DDL/DML:
    [CREATE TABLE t (c TYPE [NOT NULL] …, PRIMARY KEY (c, …))] with
    types INT(EGER) / FLOAT / REAL / DOUBLE / STRING / TEXT / VARCHAR /
    BOOL(EAN) / DATE; [DROP TABLE t];
    [INSERT INTO t VALUES (lit, …), …] or [INSERT INTO t SELECT …];
    [DELETE FROM t [WHERE …]]. *)

val parse_command_result : string -> (Ast.command, string) result
