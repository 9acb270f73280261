open Nra
module Ast = Sql.Ast
module Lexer = Sql.Lexer
module Parser = Sql.Parser
module T = Three_valued

let parse = Parser.parse

let test_lexer_basics () =
  let toks = Lexer.tokenize "SELECT a.b, 'it''s' <> 1.5e2 -- comment\n<=" in
  Alcotest.(check int) "token count" 10 (List.length toks);
  (match toks with
  | Lexer.KW "select" :: Lexer.IDENT "a" :: Lexer.OP "." :: Lexer.IDENT "b"
    :: Lexer.OP "," :: Lexer.STRING "it's" :: Lexer.OP "<>"
    :: Lexer.FLOAT 150.0 :: Lexer.OP "<=" :: [ Lexer.EOF ] ->
      ()
  | _ -> Alcotest.fail "unexpected token stream");
  (match Lexer.tokenize "!=" with
  | [ Lexer.OP "<>"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "!= should normalize to <>");
  (* a trailing ';' ends the statement, before whitespace and comments *)
  List.iter
    (fun src ->
      Alcotest.(check bool) src true
        (Lexer.tokenize src = Lexer.tokenize "select 1"))
    [ "select 1;"; "select 1 ;\n"; "select 1; -- end"; "select 1;\n-- x\n" ]

(* tokens and their byte offsets, pinned on one statement with mixed
   case, a [--] comment, a [''] quote, [!=], a float exponent and a
   trailing [;] *)
let test_lexer_offsets () =
  let src =
    "SELECT Name, 'it''s' FROM Emp -- note\nWHERE x != 1.5E2 AND Y<=3;"
  in
  let l = Lexer.lex src in
  let got =
    List.init l.Lexer.count (fun i -> (l.Lexer.tokens.(i), l.Lexer.offsets.(i)))
  in
  let expected =
    Lexer.
      [
        (KW "select", 0); (IDENT "name", 7); (OP ",", 11); (STRING "it's", 13);
        (KW "from", 21); (IDENT "emp", 26); (KW "where", 38); (IDENT "x", 44);
        (OP "<>", 46); (FLOAT 150.0, 49); (KW "and", 55); (IDENT "y", 59);
        (OP "<=", 60); (INT 3, 62); (EOF, 64);
      ]
  in
  let show (t, o) = Format.asprintf "%a@%d" Lexer.pp_token t o in
  Alcotest.(check (list string)) "tokens and offsets"
    (List.map show expected) (List.map show got);
  Alcotest.(check bool) "tokenize agrees" true
    (Lexer.tokenize src = List.map fst expected)

let test_lexer_errors () =
  (match Lexer.tokenize "'unterminated" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "accepted unterminated string");
  List.iter
    (fun src ->
      match Lexer.tokenize src with
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.fail ("accepted: " ^ src))
    [ "a ; b"; "select 1;;"; "select 1; -- x\nselect 2" ]

(* an exponent with no digits is a lex error, and it surfaces as a
   structured parse error through both entry points *)
let test_exponent_without_digits () =
  let cat = Test_support.emp_dept_catalog () in
  let srv = Nra_server.Server.create cat in
  let session = Nra_server.Server.session srv () in
  List.iter
    (fun src ->
      (match Lexer.tokenize src with
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.fail ("accepted: " ^ src));
      let sql = "select emp_id from emp where salary > " ^ src in
      let is_parse what = function
        | Error (Exec_error.Parse _) -> ()
        | Error e ->
            Alcotest.failf "%s %S: %s" what sql (Exec_error.to_string e)
        | Ok _ -> Alcotest.failf "%s accepted %S" what sql
      in
      is_parse "Nra.run" (Nra.run cat sql);
      is_parse "Server.exec" (Nra_server.Server.exec srv session sql))
    [ "1.5e"; "1.5e+"; "1.5E-"; "2.0e " ]

let roundtrip sql =
  let q = parse sql in
  let q2 = parse (Ast.to_string q) in
  Alcotest.(check bool)
    (Printf.sprintf "roundtrip: %s" sql)
    true (q = q2)

let test_simple_select () =
  let q = parse "select a, b.c as x from t, u v where a > 1" in
  Alcotest.(check int) "two select items" 2 (List.length q.Ast.select);
  Alcotest.(check bool) "alias" true (List.mem ("u", Some "v") q.Ast.from);
  roundtrip "select a, b.c as x from t, u v where a > 1"

let test_all_linking_forms () =
  List.iter roundtrip
    [
      "select * from t where exists (select * from u where u.a = t.a)";
      "select * from t where not exists (select * from u)";
      "select * from t where a in (select b from u)";
      "select * from t where a not in (select b from u)";
      "select * from t where a > all (select b from u)";
      "select * from t where a <= some (select b from u)";
      "select * from t where a = any (select b from u)";
      "select * from t where a < (select max(b) from u)";
      "select * from t where a in (1, 2, 3)";
      "select * from t where a not in (1, -2)";
      "select * from t where a between 1 and 10 or not (b is null)";
      "select * from t where a is not null and b is null";
    ]

let test_some_is_any () =
  let q1 = parse "select * from t where a = some (select b from u)" in
  let q2 = parse "select * from t where a = any (select b from u)" in
  Alcotest.(check bool) "SOME = ANY" true (q1 = q2)

let test_nested_deep () =
  let q =
    parse
      "select * from a where x in (select y from b where exists (select * \
       from c where c.z = a.x and c.w > all (select v from d)))"
  in
  Alcotest.(check int) "depth 3" 3 (Ast.query_depth q);
  Alcotest.(check bool) "not flat" false (Ast.is_flat q)

let test_full_clauses () =
  roundtrip
    "select distinct a, count(*) as n, sum(b + 1) from t where c = 'x' group \
     by a having count(*) > 2 order by a desc, n limit 10";
  let q =
    parse
      "select a from t group by a having min(b) >= 0 order by a limit 5"
  in
  Alcotest.(check int) "group_by" 1 (List.length q.Ast.group_by);
  Alcotest.(check bool) "having" true (q.Ast.having <> None);
  Alcotest.(check (option int)) "limit" (Some 5) q.Ast.limit

let test_precedence () =
  let q = parse "select * from t where a = 1 or b = 2 and c = 3" in
  (match q.Ast.where with
  | Some (Ast.Or (_, Ast.And (_, _))) -> ()
  | _ -> Alcotest.fail "AND must bind tighter than OR");
  let q = parse "select * from t where a + 2 * b = 7" in
  match q.Ast.where with
  | Some (Ast.Cmp (T.Eq, Ast.Binop (Ast.Add, _, Ast.Binop (Ast.Mul, _, _)), _))
    ->
      ()
  | _ -> Alcotest.fail "* must bind tighter than +"

let test_parenthesized_cond_vs_expr () =
  (* "(expr) cmp" must not be swallowed by the condition backtracking *)
  let q = parse "select * from t where (a + 1) > 2 and (a = 1 or b = 2)" in
  match Option.map Ast.cond_conjuncts q.Ast.where with
  | Some [ Ast.Cmp (T.Gt, _, _); Ast.Or (_, _) ] -> ()
  | _ -> Alcotest.fail "mis-parsed parenthesized forms"

let test_dates_literals () =
  let q = parse "select * from t where d >= date '1994-01-01'" in
  (match q.Ast.where with
  | Some (Ast.Cmp (T.Ge, _, Ast.Lit (Value.Date _))) -> ()
  | _ -> Alcotest.fail "date literal");
  roundtrip "select * from t where d >= date '1994-01-01' and e < -2.5"

let test_parse_errors () =
  List.iter
    (fun sql ->
      match Parser.parse_result sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ sql))
    [
      "";
      "select";
      "select from t";
      "select * from";
      "select * from t where";
      "select * from t where a >";
      "select * from t where a in ()";
      "select * from t where exists select * from u";
      "select * from t limit x";
      "select * from t order"; (* "from t trailing" is a legal alias *)
      "select * from t where a between 1";
    ]

let test_subqueries_listing () =
  let q =
    parse
      "select * from t where exists (select * from u) and a in (select b \
       from v)"
  in
  Alcotest.(check int) "two immediate subqueries" 2
    (List.length (Ast.subqueries (Option.get q.Ast.where)))

(* random AST printing/parsing roundtrip *)
let qtest = QCheck_alcotest.to_alcotest

let arb_query =
  let open QCheck.Gen in
  let ident = oneofl [ "a"; "b"; "c"; "d" ] in
  let table = oneofl [ "t"; "u"; "v" ] in
  let lit =
    oneof
      [
        map (fun i -> Ast.Lit (Value.Int i)) (int_bound 100);
        return (Ast.Lit Value.Null);
        map (fun s -> Ast.Lit (Value.String s)) (oneofl [ "x"; "y" ]);
      ]
  in
  let expr =
    oneof
      [
        map (fun n -> Ast.Col (None, n)) ident;
        map2 (fun t n -> Ast.Col (Some t, n)) table ident;
        lit;
      ]
  in
  let cmpop = oneofl [ T.Eq; T.Neq; T.Lt; T.Le; T.Gt; T.Ge ] in
  let rec cond depth =
    let leaf =
      oneof
        [
          map3 (fun op a b -> Ast.Cmp (op, a, b)) cmpop expr expr;
          map (fun e -> Ast.Is_null e) expr;
          map (fun e -> Ast.Is_not_null e) expr;
        ]
    in
    if depth = 0 then leaf
    else
      oneof
        [
          leaf;
          map2 (fun a b -> Ast.And (a, b)) (cond (depth - 1)) (cond (depth - 1));
          map2 (fun a b -> Ast.Or (a, b)) (cond (depth - 1)) (cond (depth - 1));
          map (fun a -> Ast.Not a) (cond (depth - 1));
          map2
            (fun e q -> Ast.In_query (e, q))
            expr (query (depth - 1));
          map (fun q -> Ast.Exists q) (query (depth - 1));
          map3
            (fun e op q -> Ast.Quant_cmp (e, op, Ast.All, q))
            expr cmpop (query (depth - 1));
        ]
  and query depth =
    let* sel = map (fun e -> [ Ast.Sel_expr (e, None) ]) expr in
    let* from = map (fun t -> [ (t, None) ]) table in
    let* where = option (cond depth) in
    return (Ast.simple_query ~select:sel ~from ?where ())
  in
  QCheck.make ~print:Ast.to_string (query 2)

(* Printing then parsing may normalize once (e.g. NOT (EXISTS …) becomes
   NOT EXISTS); after that first trip the representation is a fixpoint. *)
(* robustness: arbitrary input must produce Ok or Error, never escape
   with another exception *)
let prop_parser_total_on_noise =
  QCheck.Test.make ~name:"parser never crashes on noise" ~count:2000
    QCheck.(string_gen_of_size (Gen.int_bound 60) Gen.printable)
    (fun s ->
      match Parser.parse_command_result s with
      | Ok _ | Error _ -> true)

let prop_parser_total_on_token_soup =
  let fragments =
    [| "select"; "from"; "where"; "("; ")"; ","; "*"; "a"; "t"; "1";
       "'x'"; "and"; "or"; "not"; "in"; "exists"; "all"; "any"; "="; "<";
       "null"; "union"; "with"; "as"; "insert"; "values"; "like"; "%";
       "group"; "by"; "order"; "limit"; "date"; "count"; "-"; "+" |]
  in
  QCheck.Test.make ~name:"parser never crashes on token soup" ~count:2000
    QCheck.(list_of_size (Gen.int_bound 25) (int_bound 35))
    (fun idxs ->
      let s = String.concat " " (List.map (fun i -> fragments.(i)) idxs) in
      match Parser.parse_command_result s with
      | Ok _ | Error _ -> true)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse reaches a fixpoint" ~count:500 arb_query
    (fun q ->
      match Parser.parse_result (Ast.to_string q) with
      | Error _ -> false
      | Ok q2 -> (
          match Parser.parse_result (Ast.to_string q2) with
          | Ok q3 -> q3 = q2
          | Error _ -> false))

let () =
  Alcotest.run "sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "offsets" `Quick test_lexer_offsets;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "exponent without digits" `Quick
            test_exponent_without_digits;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple select" `Quick test_simple_select;
          Alcotest.test_case "all linking forms" `Quick test_all_linking_forms;
          Alcotest.test_case "SOME = ANY" `Quick test_some_is_any;
          Alcotest.test_case "deep nesting" `Quick test_nested_deep;
          Alcotest.test_case "full clauses" `Quick test_full_clauses;
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "parenthesized forms" `Quick
            test_parenthesized_cond_vs_expr;
          Alcotest.test_case "date literals" `Quick test_dates_literals;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "subqueries" `Quick test_subqueries_listing;
        ] );
      ( "properties",
        [
          qtest prop_print_parse_roundtrip;
          qtest prop_parser_total_on_noise;
          qtest prop_parser_total_on_token_soup;
        ] );
    ]
