type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string
  | OP of string
  | EOF

exception Lex_error of string * int

let keywords =
  [
    "select"; "distinct"; "from"; "where"; "and"; "or"; "not"; "in";
    "exists"; "any"; "some"; "all"; "between"; "is"; "null"; "as";
    "like"; "group"; "order"; "by"; "having"; "asc"; "desc"; "limit"; "date";
    "true"; "false"; "count"; "sum"; "avg"; "min"; "max"; "union";
    "intersect"; "except"; "create"; "table"; "drop"; "insert"; "into";
    "values"; "delete"; "primary"; "key"; "with"; "update"; "set";
  ]

let is_keyword s = List.mem s keywords

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize_loc src =
  let n = String.length src in
  let tokens = ref [] in
  let tok_start = ref 0 in
  let emit t = tokens := (t, !tok_start) :: !tokens in
  let pos = ref 0 in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let fail msg = raise (Lex_error (msg, !pos)) in
  while !pos < n do
    tok_start := !pos;
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '-' && peek 1 = Some '-' then begin
      (* line comment *)
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    end
    else if c = ';' then begin
      (* a statement terminator: only whitespace and comments may
         follow it *)
      let rec rest i =
        if i >= n then true
        else
          match src.[i] with
          | ' ' | '\t' | '\n' | '\r' -> rest (i + 1)
          | '-' when i + 1 < n && src.[i + 1] = '-' -> (
              match String.index_from_opt src i '\n' with
              | Some j -> rest j
              | None -> true)
          | _ -> false
      in
      if rest (!pos + 1) then pos := n else fail "unexpected character ';'"
    end
    else if is_ident_start c then begin
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        incr pos
      done;
      let word = String.lowercase_ascii (String.sub src start (!pos - start)) in
      if is_keyword word then emit (KW word) else emit (IDENT word)
    end
    else if is_digit c then begin
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        incr pos
      done;
      let is_float =
        !pos < n && src.[!pos] = '.'
        && match peek 1 with Some d -> is_digit d | None -> false
      in
      if is_float then begin
        incr pos;
        while !pos < n && is_digit src.[!pos] do
          incr pos
        done;
        (* exponent *)
        if !pos < n && (src.[!pos] = 'e' || src.[!pos] = 'E') then begin
          incr pos;
          if !pos < n && (src.[!pos] = '+' || src.[!pos] = '-') then incr pos;
          if not (!pos < n && is_digit src.[!pos]) then
            fail "exponent without digits";
          while !pos < n && is_digit src.[!pos] do
            incr pos
          done
        end;
        emit (FLOAT (float_of_string (String.sub src start (!pos - start))))
      end
      else emit (INT (int_of_string (String.sub src start (!pos - start))))
    end
    else if c = '\'' then begin
      incr pos;
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string literal"
        else if src.[!pos] = '\'' then
          if peek 1 = Some '\'' then begin
            Buffer.add_char buf '\'';
            pos := !pos + 2;
            go ()
          end
          else incr pos
        else begin
          Buffer.add_char buf src.[!pos];
          incr pos;
          go ()
        end
      in
      go ();
      emit (STRING (Buffer.contents buf))
    end
    else begin
      let two = if !pos + 1 < n then String.sub src !pos 2 else "" in
      match two with
      | "<>" | "<=" | ">=" | "!=" ->
          emit (OP (if two = "!=" then "<>" else two));
          pos := !pos + 2
      | _ -> (
          match c with
          | '=' | '<' | '>' | '+' | '-' | '*' | '/' | '.' | ',' | '(' | ')'
            ->
              emit (OP (String.make 1 c));
              incr pos
          | _ -> fail (Printf.sprintf "unexpected character %C" c))
    end
  done;
  List.rev ((EOF, n) :: !tokens)

let tokenize src = List.map fst (tokenize_loc src)

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "ident %s" s
  | INT i -> Format.fprintf ppf "int %d" i
  | FLOAT f -> Format.fprintf ppf "float %g" f
  | STRING s -> Format.fprintf ppf "string %S" s
  | KW s -> Format.fprintf ppf "keyword %s" s
  | OP s -> Format.fprintf ppf "%S" s
  | EOF -> Format.pp_print_string ppf "<eof>"
