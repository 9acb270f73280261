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

val tokenize : string -> token list

val tokenize_loc : string -> (token * int) list
(** Tokens paired with their starting byte offset in the source; the
    final [EOF] carries [String.length src].  Parse errors report these
    offsets back to the user (with a caret excerpt). *)

val keywords : string list
(** The recognized keyword set (lower-case). *)

val pp_token : Format.formatter -> token -> unit
