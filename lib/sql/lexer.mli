(** Hand-written SQL lexer.

    Keywords are case-insensitive; identifiers are lower-cased.  String
    literals use single quotes with [''] escaping.  [--] starts a
    line comment.  A [;] may end the statement: only whitespace and
    comments may follow it. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string        (** recognized keyword, lower-cased *)
  | OP of string        (** one of [= <> != < <= > >= + - * / . , ( )] *)
  | EOF

exception Lex_error of string * int  (** message, position *)

type lexed = {
  tokens : token array;
  offsets : int array;
      (** each token's starting byte offset in the source; the final
          [EOF] carries [String.length src].  Parse errors report these
          offsets back to the user (with a caret excerpt). *)
  count : int;
      (** tokens [0 .. count-1] are the statement's, ending in [EOF];
          the slots after them are unused *)
}

val lex : string -> lexed
(** One pass over the source, writing tokens and offsets straight into
    arrays.  Keyword and operator tokens are shared constants; each
    identifier is copied once, lower-cased. *)

val tokenize : string -> token list
(** The first [count] tokens of {!lex}. *)

val pp_token : Format.formatter -> token -> unit
