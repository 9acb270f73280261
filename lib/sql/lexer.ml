type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string
  | OP of string
  | EOF

exception Lex_error of string * int

(* Each keyword as the one token the lexer emits for it.  A list of
   constants is static data: looking a word up allocates nothing, and
   neither does the module's initialization. *)
let keyword_tokens =
  [
    KW "select"; KW "distinct"; KW "from"; KW "where"; KW "and"; KW "or";
    KW "not"; KW "in"; KW "exists"; KW "any"; KW "some"; KW "all";
    KW "between"; KW "is"; KW "null"; KW "as"; KW "like"; KW "group";
    KW "order"; KW "by"; KW "having"; KW "asc"; KW "desc"; KW "limit";
    KW "date"; KW "true"; KW "false"; KW "count"; KW "sum"; KW "avg";
    KW "min"; KW "max"; KW "union"; KW "intersect"; KW "except";
    KW "create"; KW "table"; KW "drop"; KW "insert"; KW "into"; KW "values";
    KW "delete"; KW "primary"; KW "key"; KW "with"; KW "update"; KW "set";
  ]

(* a lower-cased word's token: its keyword's, else an identifier *)
let rec word_token word = function
  | (KW k as t) :: _ when String.equal k word -> t
  | _ :: rest -> word_token word rest
  | [] -> IDENT word

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

type lexed = { tokens : token array; offsets : int array; count : int }

(* The token arrays grow by doubling; slots past [count] are unused. *)
type buf = {
  mutable toks : token array;
  mutable offs : int array;
  mutable len : int;
}

let push b t off =
  if b.len = Array.length b.toks then begin
    let cap = 2 * b.len in
    let toks = Array.make cap EOF and offs = Array.make cap 0 in
    Array.blit b.toks 0 toks 0 b.len;
    Array.blit b.offs 0 offs 0 b.len;
    b.toks <- toks;
    b.offs <- offs
  end;
  b.toks.(b.len) <- t;
  b.offs.(b.len) <- off;
  b.len <- b.len + 1

(* an operator token [width] characters long at [start] *)
let push_op b pos t start width =
  push b t start;
  pos := start + width

(* [src.[start .. stop-1]] lower-cased, in one copy *)
let lower_sub src start stop =
  let w = Bytes.create (stop - start) in
  for i = start to stop - 1 do
    Bytes.unsafe_set w (i - start) (Char.lowercase_ascii src.[i])
  done;
  Bytes.unsafe_to_string w

(* digits that fit an int are summed in place; a longer run keeps
   [int_of_string]'s overflow failure *)
let int_of_digits src start stop =
  if stop - start > 18 then int_of_string (String.sub src start (stop - start))
  else begin
    let v = ref 0 in
    for i = start to stop - 1 do
      v := (!v * 10) + (Char.code src.[i] - 48)
    done;
    !v
  end

(* the string literal whose opening quote is at [start]: its closing
   quote's index and its unescaped contents *)
let string_literal src start =
  let n = String.length src in
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= n then raise (Lex_error ("unterminated string literal", n))
    else if src.[i] <> '\'' then begin
      Buffer.add_char buf src.[i];
      go (i + 1)
    end
    else if i + 1 < n && src.[i + 1] = '\'' then begin
      Buffer.add_char buf '\'';
      go (i + 2)
    end
    else i
  in
  let stop = go (start + 1) in
  (stop, Buffer.contents buf)

(* only whitespace and [--] comments from [i] on *)
let rec blank_to_end src i =
  let n = String.length src in
  if i >= n then true
  else
    match src.[i] with
    | ' ' | '\t' | '\n' | '\r' -> blank_to_end src (i + 1)
    | '-' when i + 1 < n && src.[i + 1] = '-' -> (
        match String.index_from_opt src i '\n' with
        | Some j -> blank_to_end src j
        | None -> true)
    | _ -> false

let lex src =
  let n = String.length src in
  let cap = (n / 4) + 4 in
  let b = { toks = Array.make cap EOF; offs = Array.make cap 0; len = 0 } in
  let pos = ref 0 in
  let fail msg = raise (Lex_error (msg, !pos)) in
  let has k c = !pos + k < n && src.[!pos + k] = c in
  while !pos < n do
    let start = !pos in
    match src.[start] with
    | ' ' | '\t' | '\n' | '\r' -> incr pos
    | '-' when has 1 '-' ->
        (* line comment *)
        while !pos < n && src.[!pos] <> '\n' do
          incr pos
        done
    | ';' ->
        (* a statement terminator: only whitespace and comments may
           follow it *)
        if blank_to_end src (start + 1) then pos := n
        else fail "unexpected character ';'"
    | c when is_ident_start c ->
        while !pos < n && is_ident_char src.[!pos] do
          incr pos
        done;
        let word = lower_sub src start !pos in
        push b (word_token word keyword_tokens) start
    | c when is_digit c ->
        while !pos < n && is_digit src.[!pos] do
          incr pos
        done;
        if has 0 '.' && !pos + 1 < n && is_digit src.[!pos + 1] then begin
          incr pos;
          while !pos < n && is_digit src.[!pos] do
            incr pos
          done;
          (* exponent *)
          if has 0 'e' || has 0 'E' then begin
            incr pos;
            if has 0 '+' || has 0 '-' then incr pos;
            if not (!pos < n && is_digit src.[!pos]) then
              fail "exponent without digits";
            while !pos < n && is_digit src.[!pos] do
              incr pos
            done
          end;
          push b
            (FLOAT (float_of_string (String.sub src start (!pos - start))))
            start
        end
        else push b (INT (int_of_digits src start !pos)) start
    | '\'' ->
        let stop, body = string_literal src start in
        push b (STRING body) start;
        pos := stop + 1
    | '<' when has 1 '>' -> push_op b pos (OP "<>") start 2
    | '<' when has 1 '=' -> push_op b pos (OP "<=") start 2
    | '>' when has 1 '=' -> push_op b pos (OP ">=") start 2
    | '!' when has 1 '=' -> push_op b pos (OP "<>") start 2
    | '=' -> push_op b pos (OP "=") start 1
    | '<' -> push_op b pos (OP "<") start 1
    | '>' -> push_op b pos (OP ">") start 1
    | '+' -> push_op b pos (OP "+") start 1
    | '-' -> push_op b pos (OP "-") start 1
    | '*' -> push_op b pos (OP "*") start 1
    | '/' -> push_op b pos (OP "/") start 1
    | '.' -> push_op b pos (OP ".") start 1
    | ',' -> push_op b pos (OP ",") start 1
    | '(' -> push_op b pos (OP "(") start 1
    | ')' -> push_op b pos (OP ")") start 1
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  done;
  push b EOF n;
  { tokens = b.toks; offsets = b.offs; count = b.len }

let tokenize src =
  let l = lex src in
  List.init l.count (Array.get l.tokens)

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "ident %s" s
  | INT i -> Format.fprintf ppf "int %d" i
  | FLOAT f -> Format.fprintf ppf "float %g" f
  | STRING s -> Format.fprintf ppf "string %S" s
  | KW s -> Format.fprintf ppf "keyword %s" s
  | OP s -> Format.fprintf ppf "%S" s
  | EOF -> Format.pp_print_string ppf "<eof>"
