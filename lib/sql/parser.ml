open Nra_relational
module T3 = Three_valued

exception Parse_error of string

(* internal: every failure carries the byte offset of the offending
   token, so user-facing messages can point into the query text *)
exception Parse_error_at of string * int

type state = {
  tokens : Lexer.token array;
  offsets : int array;
  count : int;  (* tokens past [count] are not the statement's *)
  mutable cursor : int;
}

let fail st msg =
  let i = min st.cursor (st.count - 1) in
  raise
    (Parse_error_at
       ( Format.asprintf "%s (got %a)" msg Lexer.pp_token st.tokens.(i),
         st.offsets.(i) ))

let peek st = st.tokens.(st.cursor)
let peek2 st =
  if st.cursor + 1 < st.count then st.tokens.(st.cursor + 1)
  else Lexer.EOF

let advance st = st.cursor <- st.cursor + 1

let eat_kw st kw =
  match peek st with
  | Lexer.KW k when k = kw -> advance st
  | _ -> fail st (Printf.sprintf "expected keyword %s" kw)

let eat_op st op =
  match peek st with
  | Lexer.OP o when o = op -> advance st
  | _ -> fail st (Printf.sprintf "expected %s" op)

let try_kw st kw =
  match peek st with
  | Lexer.KW k when k = kw ->
      advance st;
      true
  | _ -> false

let try_op st op =
  match peek st with
  | Lexer.OP o when o = op ->
      advance st;
      true
  | _ -> false

let ident st =
  match peek st with
  | Lexer.IDENT s ->
      advance st;
      s
  | _ -> fail st "expected an identifier"

let cmpop_of_string = function
  | "=" -> Some T3.Eq
  | "<>" -> Some T3.Neq
  | "<" -> Some T3.Lt
  | "<=" -> Some T3.Le
  | ">" -> Some T3.Gt
  | ">=" -> Some T3.Ge
  | _ -> None

(* ---------- literals and scalar expressions ---------- *)

let literal st : Value.t =
  match peek st with
  | Lexer.INT i ->
      advance st;
      Value.Int i
  | Lexer.FLOAT f ->
      advance st;
      Value.Float f
  | Lexer.STRING s ->
      advance st;
      Value.String s
  | Lexer.KW "null" ->
      advance st;
      Value.Null
  | Lexer.KW "true" ->
      advance st;
      Value.Bool true
  | Lexer.KW "false" ->
      advance st;
      Value.Bool false
  | Lexer.KW "date" -> (
      advance st;
      match peek st with
      | Lexer.STRING s ->
          advance st;
          (try Value.date_of_string s
           with Value.Type_error m -> fail st m)
      | _ -> fail st "expected a date string after DATE")
  | Lexer.OP "-" -> (
      advance st;
      match peek st with
      | Lexer.INT i ->
          advance st;
          Value.Int (-i)
      | Lexer.FLOAT f ->
          advance st;
          Value.Float (-.f)
      | _ -> fail st "expected a number after unary minus")
  | _ -> fail st "expected a literal"

let rec expr st = additive st

and additive st =
  let lhs = ref (multiplicative st) in
  let continue = ref true in
  while !continue do
    if try_op st "+" then
      lhs := Ast.Binop (Ast.Add, !lhs, multiplicative st)
    else if try_op st "-" then
      lhs := Ast.Binop (Ast.Sub, !lhs, multiplicative st)
    else continue := false
  done;
  !lhs

and multiplicative st =
  let lhs = ref (unary st) in
  let continue = ref true in
  while !continue do
    if try_op st "*" then lhs := Ast.Binop (Ast.Mul, !lhs, unary st)
    else if try_op st "/" then lhs := Ast.Binop (Ast.Div, !lhs, unary st)
    else continue := false
  done;
  !lhs

and unary st =
  if try_op st "-" then Ast.Neg (unary st)
  else primary st

and primary st =
  match peek st with
  | Lexer.IDENT name ->
      advance st;
      if try_op st "." then Ast.Col (Some name, ident st)
      else Ast.Col (None, name)
  | Lexer.INT _ | Lexer.FLOAT _ | Lexer.STRING _
  | Lexer.KW ("null" | "true" | "false" | "date") ->
      Ast.Lit (literal st)
  | Lexer.KW (("count" | "sum" | "avg" | "min" | "max") as f) ->
      advance st;
      eat_op st "(";
      let agg =
        if f = "count" && try_op st "*" then Ast.Agg (Ast.Count_star, None)
        else
          let e = expr st in
          let func =
            match f with
            | "count" -> Ast.Count
            | "sum" -> Ast.Sum
            | "avg" -> Ast.Avg
            | "min" -> Ast.Min
            | _ -> Ast.Max
          in
          Ast.Agg (func, Some e)
      in
      eat_op st ")";
      agg
  | Lexer.OP "(" ->
      advance st;
      let e = expr st in
      eat_op st ")";
      e
  | _ -> fail st "expected an expression"

(* ---------- conditions ---------- *)

let rec cond st = or_cond st

and or_cond st =
  let lhs = ref (and_cond st) in
  while try_kw st "or" do
    lhs := Ast.Or (!lhs, and_cond st)
  done;
  !lhs

and and_cond st =
  let lhs = ref (not_cond st) in
  while try_kw st "and" do
    lhs := Ast.And (!lhs, not_cond st)
  done;
  !lhs

and not_cond st =
  if try_kw st "not" then
    match peek st with
    | Lexer.KW "exists" ->
        advance st;
        Ast.Not_exists (parenthesized_query st)
    | _ -> Ast.Not (not_cond st)
  else predicate st

and predicate st =
  match peek st with
  | Lexer.KW "exists" ->
      advance st;
      Ast.Exists (parenthesized_query st)
  | Lexer.KW "true" ->
      advance st;
      Ast.True_
  | Lexer.OP "(" -> (
      (* backtracking: "(cond)" vs "(expr) <tail>" *)
      let saved = st.cursor in
      match
        advance st;
        let c = cond st in
        eat_op st ")";
        c
      with
      | c -> (
          (* reject "(expr)" mis-parsed as cond if a predicate tail
             follows, e.g. "(a.x) > 1" — retry as expression *)
          match peek st with
          | Lexer.OP o when cmpop_of_string o <> None ->
              st.cursor <- saved;
              expr_predicate st
          | Lexer.KW ("is" | "in" | "between" | "like" | "not") ->
              st.cursor <- saved;
              expr_predicate st
          | _ -> c)
      | exception Parse_error_at _ ->
          st.cursor <- saved;
          expr_predicate st)
  | _ -> expr_predicate st

and expr_predicate st =
  let e = expr st in
  predicate_tail st e

and predicate_tail st e =
  match peek st with
  | Lexer.KW "is" ->
      advance st;
      if try_kw st "not" then begin
        eat_kw st "null";
        Ast.Is_not_null e
      end
      else begin
        eat_kw st "null";
        Ast.Is_null e
      end
  | Lexer.KW "in" ->
      advance st;
      in_tail st e ~negated:false
  | Lexer.KW "like" ->
      advance st;
      Ast.Like (e, like_pattern st)
  | Lexer.KW "not" ->
      advance st;
      if try_kw st "in" then in_tail st e ~negated:true
      else if try_kw st "like" then Ast.Not (Ast.Like (e, like_pattern st))
      else if try_kw st "between" then begin
        let lo = expr st in
        eat_kw st "and";
        let hi = expr st in
        Ast.Not (Ast.Between (e, lo, hi))
      end
      else fail st "expected IN, LIKE or BETWEEN after NOT"
  | Lexer.KW "between" ->
      advance st;
      let lo = expr st in
      eat_kw st "and";
      let hi = expr st in
      Ast.Between (e, lo, hi)
  | Lexer.OP o when cmpop_of_string o <> None -> (
      let op = Option.get (cmpop_of_string o) in
      advance st;
      match peek st with
      | Lexer.KW ("any" | "some") ->
          advance st;
          Ast.Quant_cmp (e, op, Ast.Any, parenthesized_query st)
      | Lexer.KW "all" ->
          advance st;
          Ast.Quant_cmp (e, op, Ast.All, parenthesized_query st)
      | Lexer.OP "(" when peek2 st = Lexer.KW "select" ->
          Ast.Scalar_cmp (e, op, parenthesized_query st)
      | _ -> Ast.Cmp (op, e, expr st))
  | _ -> fail st "expected a predicate"

and like_pattern st =
  match peek st with
  | Lexer.STRING p ->
      advance st;
      p
  | _ -> fail st "expected a string pattern after LIKE"

and in_tail st e ~negated =
  eat_op st "(";
  match peek st with
  | Lexer.KW "select" ->
      let q = query st in
      eat_op st ")";
      if negated then Ast.Not_in_query (e, q) else Ast.In_query (e, q)
  | _ ->
      let vs = ref [ literal st ] in
      while try_op st "," do
        vs := literal st :: !vs
      done;
      eat_op st ")";
      let l = Ast.In_list (e, List.rev !vs) in
      if negated then Ast.Not l else l

and parenthesized_query st =
  eat_op st "(";
  let q = query st in
  eat_op st ")";
  q

(* ---------- queries ---------- *)

and select_item st =
  match peek st with
  | Lexer.OP "*" ->
      advance st;
      Ast.Star
  | Lexer.IDENT t
    when peek2 st = Lexer.OP "."
         && st.cursor + 2 < Array.length st.tokens
         && st.tokens.(st.cursor + 2) = Lexer.OP "*" ->
      advance st;
      advance st;
      advance st;
      Ast.Table_star t
  | _ ->
      let e = expr st in
      let alias = alias_opt st in
      Ast.Sel_expr (e, alias)

and alias_opt st =
  if try_kw st "as" then Some (ident st)
  else
    match peek st with
    | Lexer.IDENT a ->
        advance st;
        Some a
    | _ -> None

and from_item st =
  let t = ident st in
  let alias =
    if try_kw st "as" then Some (ident st)
    else
      match peek st with
      | Lexer.IDENT a ->
          advance st;
          Some a
      | _ -> None
  in
  (t, alias)

and query st =
  eat_kw st "select";
  let distinct = try_kw st "distinct" in
  let select = ref [ select_item st ] in
  while try_op st "," do
    select := select_item st :: !select
  done;
  eat_kw st "from";
  let from = ref [ from_item st ] in
  while try_op st "," do
    from := from_item st :: !from
  done;
  let where = if try_kw st "where" then Some (cond st) else None in
  let group_by =
    if try_kw st "group" then begin
      eat_kw st "by";
      let gs = ref [ expr st ] in
      while try_op st "," do
        gs := expr st :: !gs
      done;
      List.rev !gs
    end
    else []
  in
  let having = if try_kw st "having" then Some (cond st) else None in
  let order_by =
    if try_kw st "order" then begin
      eat_kw st "by";
      let one st =
        let e = expr st in
        let dir =
          if try_kw st "desc" then `Desc
          else begin
            ignore (try_kw st "asc");
            `Asc
          end
        in
        (e, dir)
      in
      let os = ref [ one st ] in
      while try_op st "," do
        os := one st :: !os
      done;
      List.rev !os
    end
    else []
  in
  let limit =
    if try_kw st "limit" then (
      match peek st with
      | Lexer.INT n ->
          advance st;
          Some n
      | _ -> fail st "expected an integer after LIMIT")
    else None
  in
  {
    Ast.distinct;
    select = List.rev !select;
    from = List.rev !from;
    where;
    group_by;
    having;
    order_by;
    limit;
  }

(* ---------- statements (set operations) ---------- *)

let rec statement st = union_chain st

and union_chain st =
  let lhs = ref (intersect_chain st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Lexer.KW (("union" | "except") as k) ->
        advance st;
        let all = try_kw st "all" in
        let op = if k = "union" then `Union else `Except in
        lhs := Ast.Setop ({ Ast.op; all }, !lhs, intersect_chain st)
    | _ -> continue := false
  done;
  !lhs

and intersect_chain st =
  let lhs = ref (setop_primary st) in
  while try_kw st "intersect" do
    let all = try_kw st "all" in
    lhs := Ast.Setop ({ Ast.op = `Intersect; all }, !lhs, setop_primary st)
  done;
  !lhs

and setop_primary st =
  if try_op st "(" then begin
    let s = statement st in
    eat_op st ")";
    s
  end
  else Ast.Select (query st)

(* ---------- commands (DDL / DML) ---------- *)

let type_name st : Ttype.t =
  let named = function
    | "int" | "integer" -> Some Ttype.Int
    | "float" | "real" | "double" | "decimal" | "numeric" -> Some Ttype.Float
    | "string" | "text" | "varchar" | "char" -> Some Ttype.String
    | "bool" | "boolean" -> Some Ttype.Bool
    | _ -> None
  in
  match peek st with
  | Lexer.IDENT n -> (
      match named n with
      | Some ty ->
          advance st;
          (* tolerate a length like varchar(25) *)
          if try_op st "(" then begin
            (match peek st with
            | Lexer.INT _ -> advance st
            | _ -> fail st "expected a length");
            eat_op st ")"
          end;
          ty
      | None -> fail st (Printf.sprintf "unknown type %s" n))
  | Lexer.KW "date" ->
      advance st;
      Ttype.Date
  | _ -> fail st "expected a type name"

let create_table st =
  eat_kw st "table";
  let table = ident st in
  eat_op st "(";
  let columns = ref [] in
  let key = ref [] in
  let item () =
    if try_kw st "primary" then begin
      eat_kw st "key";
      eat_op st "(";
      let ks = ref [ ident st ] in
      while try_op st "," do
        ks := ident st :: !ks
      done;
      eat_op st ")";
      if !key <> [] then fail st "duplicate PRIMARY KEY clause";
      key := List.rev !ks
    end
    else begin
      let cd_name = ident st in
      let cd_type = type_name st in
      let cd_not_null =
        if try_kw st "not" then begin
          eat_kw st "null";
          true
        end
        else false
      in
      columns := { Ast.cd_name; cd_type; cd_not_null } :: !columns
    end
  in
  item ();
  while try_op st "," do
    item ()
  done;
  eat_op st ")";
  if !key = [] then
    fail st "CREATE TABLE requires a PRIMARY KEY (…) clause";
  Ast.Create_table { table; columns = List.rev !columns; key = !key }

let insert st =
  eat_kw st "into";
  let table = ident st in
  match peek st with
  | Lexer.KW "values" ->
      advance st;
      let row () =
        eat_op st "(";
        let vs = ref [ literal st ] in
        while try_op st "," do
          vs := literal st :: !vs
        done;
        eat_op st ")";
        List.rev !vs
      in
      let rows = ref [ row () ] in
      while try_op st "," do
        rows := row () :: !rows
      done;
      Ast.Insert_values (table, List.rev !rows)
  | Lexer.KW "select" | Lexer.OP "(" ->
      Ast.Insert_select (table, statement st)
  | _ -> fail st "expected VALUES or SELECT after INSERT INTO t"

let with_query st =
  let cte () =
    let name = ident st in
    eat_kw st "as";
    eat_op st "(";
    let s = statement st in
    eat_op st ")";
    (name, s)
  in
  let ctes = ref [ cte () ] in
  while try_op st "," do
    let (name, _) as c = cte () in
    if List.mem_assoc name !ctes then
      fail st (Printf.sprintf "WITH name %s specified more than once" name);
    ctes := c :: !ctes
  done;
  Ast.With_query (List.rev !ctes, statement st)

let command st : Ast.command =
  match peek st with
  | Lexer.KW "with" ->
      advance st;
      with_query st
  | Lexer.KW "create" ->
      advance st;
      create_table st
  | Lexer.KW "drop" ->
      advance st;
      eat_kw st "table";
      Ast.Drop_table (ident st)
  | Lexer.KW "insert" ->
      advance st;
      insert st
  | Lexer.KW "delete" ->
      advance st;
      eat_kw st "from";
      let table = ident st in
      let where = if try_kw st "where" then Some (cond st) else None in
      Ast.Delete (table, where)
  | Lexer.KW "update" ->
      advance st;
      let table = ident st in
      eat_kw st "set";
      let assignment () =
        let c = ident st in
        eat_op st "=";
        (c, expr st)
      in
      let assigns = ref [ assignment () ] in
      while try_op st "," do
        assigns := assignment () :: !assigns
      done;
      let where = if try_kw st "where" then Some (cond st) else None in
      Ast.Update (table, List.rev !assigns, where)
  | Lexer.IDENT "analyze" -> (
      advance st;
      match peek st with
      | Lexer.IDENT name ->
          advance st;
          Ast.Analyze (Some name)
      | Lexer.EOF -> Ast.Analyze None
      | t ->
          fail st
            (Format.asprintf "expected a table name after ANALYZE, got %a"
               Lexer.pp_token t))
  | _ -> Ast.Cmd_query (statement st)

(* ---------- error rendering ---------- *)

type located_error = { message : string; offset : int option; excerpt : string }

(* One display line of the query around [pos], control characters
   flattened to spaces, with a caret line pointing at the offset. *)
let excerpt src pos =
  let clean =
    String.map (fun c -> if c = '\n' || c = '\t' || c = '\r' then ' ' else c) src
  in
  let n = String.length clean in
  let pos = min (max pos 0) n in
  let width = 64 in
  let from = max 0 (min (pos - (width / 2)) (n - width)) in
  let upto = min n (from + width) in
  let prefix = if from > 0 then "…" else "" in
  let suffix = if upto < n then "…" else "" in
  let line = prefix ^ String.sub clean from (upto - from) ^ suffix in
  let caret_col = String.length prefix + (pos - from) in
  Printf.sprintf "  %s\n  %s^" line (String.make caret_col ' ')

let render_error (e : located_error) =
  match e.offset with
  | None -> e.message
  | Some pos -> Printf.sprintf "%s at offset %d\n%s" e.message pos e.excerpt

let located f src =
  match f src with
  | v -> Ok v
  | exception Parse_error_at (m, pos) ->
      Error { message = m; offset = Some pos; excerpt = excerpt src pos }
  | exception Parse_error m -> Error { message = m; offset = None; excerpt = "" }
  | exception Lexer.Lex_error (m, pos) ->
      Error
        {
          message = "lexical error: " ^ m;
          offset = Some pos;
          excerpt = excerpt src pos;
        }

let with_state src f =
  let { Lexer.tokens; offsets; count } = Lexer.lex src in
  let st = { tokens; offsets; count; cursor = 0 } in
  let result = f st in
  (match peek st with
  | Lexer.EOF -> ()
  | t -> fail st (Format.asprintf "trailing input starting with %a" Lexer.pp_token t));
  result

(* exception-raising entry points keep raising the public [Parse_error],
   now with the offset rendered into the message *)
let raising f src =
  try f src
  with Parse_error_at (m, pos) ->
    raise (Parse_error (Printf.sprintf "%s at offset %d" m pos))

let parse src = raising (fun src -> with_state src query) src
let parse_statement src = raising (fun src -> with_state src statement) src
let parse_command src = raising (fun src -> with_state src command) src

let parse_located src = located (fun src -> with_state src query) src

let parse_command_located src = located (fun src -> with_state src command) src

let errors_to_result f src = Result.map_error render_error (f src)

let parse_result src = errors_to_result parse_located src
let parse_command_result src = errors_to_result parse_command_located src
