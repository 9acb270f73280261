(* A deliberately naive tuple-at-a-time reference evaluator.

   The differential oracle for the executor suites: it interprets the
   raw SQL AST directly — nested-loop FROM products, per-tuple subquery
   re-evaluation under a scope stack, three-valued WHERE — touching
   none of the machinery under test (no Analyze block tree, no Frame
   compilation, no nest/linking pipeline, no optimizer, no storage
   operators).  Its only shared ground with the engine is the base
   value algebra (Value arithmetic/comparison, Three_valued, LIKE
   matching), which both sides must agree on by definition.

   Semantics implemented, matching the engine's documented behavior:
   - WHERE under 3VL; a tuple qualifies iff the condition is True.
   - EXISTS / NOT EXISTS never yield Unknown; EXISTS over an
     aggregate subquery always holds (its one row exists).
   - IN ≡ (= ANY), NOT IN ≡ (<> ALL); ANY is a 3VL disjunction, ALL a
     3VL conjunction over the subquery's value set.
   - An aggregate subquery yields exactly one value, even for the
     empty group: COUNT → 0, SUM/AVG/MIN/MAX → NULL.  Aggregates skip
     NULL inputs.
   - A raw scalar subquery with no rows yields Unknown; more than one
     row is a runtime error.

   Supported surface: single-block SELECT with FROM/WHERE/DISTINCT at
   the top level, arbitrary subquery nesting in WHERE.  GROUP BY,
   HAVING, ORDER BY, LIMIT and set operations raise [Unsupported] —
   callers compare order-insensitively via [sorted_csv]. *)

open Nra
module Ast = Sql.Ast
module T3 = Three_valued

exception Unsupported of string
exception Eval_error of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt
let eval_error fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

(* one FROM binding: alias, column names, current tuple *)
type binding = { alias : string; cols : string array; row : Row.t }

(* a scope stack, innermost block first; each frame is one block's FROM *)
type env = binding list list

let col_index (b : binding) name =
  let n = Array.length b.cols in
  let rec go i = if i >= n then None else if b.cols.(i) = name then Some i else go (i + 1) in
  go 0

let lookup (env : env) tbl name =
  let rec frames = function
    | [] -> (
        match tbl with
        | Some t -> eval_error "unknown table or alias %s" t
        | None -> eval_error "unknown column %s" name)
    | frame :: rest -> (
        match tbl with
        | Some t -> (
            match List.find_opt (fun b -> b.alias = t) frame with
            | None -> frames rest
            | Some b -> (
                match col_index b name with
                | Some i -> b.row.(i)
                | None -> eval_error "unknown column %s.%s" t name))
        | None -> (
            let hits =
              List.filter_map
                (fun b -> Option.map (fun i -> b.row.(i)) (col_index b name))
                frame
            in
            match hits with
            | [ v ] -> v
            | [] -> frames rest
            | _ -> eval_error "ambiguous column %s" name))
  in
  frames env

let rec eval_expr env = function
  | Ast.Col (tbl, name) -> lookup env tbl name
  | Ast.Lit v -> v
  | Ast.Binop (op, a, b) ->
      let f =
        match op with
        | Ast.Add -> Value.add
        | Ast.Sub -> Value.sub
        | Ast.Mul -> Value.mul
        | Ast.Div -> Value.div
      in
      f (eval_expr env a) (eval_expr env b)
  | Ast.Neg e -> Value.neg (eval_expr env e)
  | Ast.Agg _ -> unsupported "aggregate outside a subquery select list"

let eval_agg f arg envs =
  let non_null e =
    List.filter_map
      (fun env ->
        let v = eval_expr env e in
        if Value.is_null v then None else Some v)
      envs
  in
  let arg_or_fail () =
    match arg with
    | Some e -> e
    | None -> eval_error "aggregate without argument"
  in
  match f with
  | Ast.Count_star -> Value.Int (List.length envs)
  | Ast.Count -> Value.Int (List.length (non_null (arg_or_fail ())))
  | Ast.Sum -> (
      match non_null (arg_or_fail ()) with
      | [] -> Value.Null
      | v :: vs -> List.fold_left Value.add v vs)
  | Ast.Avg -> (
      match non_null (arg_or_fail ()) with
      | [] -> Value.Null
      | vs ->
          let sum = List.fold_left Value.add (Value.Int 0) vs in
          Value.div
            (Value.mul sum (Value.Float 1.0))
            (Value.Int (List.length vs)))
  | Ast.Min -> (
      match non_null (arg_or_fail ()) with
      | [] -> Value.Null
      | v :: vs ->
          List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v vs)
  | Ast.Max -> (
      match non_null (arg_or_fail ()) with
      | [] -> Value.Null
      | v :: vs ->
          List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v vs)

(* the cartesian product of a block's FROM, as per-tuple frames *)
let from_frames cat (from : (string * string option) list) : binding list list =
  if from = [] then unsupported "empty FROM";
  let sources =
    List.map
      (fun (name, alias_opt) ->
        let t =
          match Catalog.table_opt cat name with
          | Some t -> t
          | None -> eval_error "unknown table %s" name
        in
        let rel = Table.relation t in
        let cols =
          Array.map (fun c -> c.Schema.name) (Schema.columns (Relation.schema rel))
        in
        let alias = Option.value alias_opt ~default:name in
        (alias, cols, Relation.rows rel))
      from
  in
  (let seen = Hashtbl.create 4 in
   List.iter
     (fun (alias, _, _) ->
       if Hashtbl.mem seen alias then eval_error "duplicate alias %s" alias;
       Hashtbl.add seen alias ())
     sources);
  List.fold_left
    (fun acc (alias, cols, rows) ->
      List.concat_map
        (fun partial ->
          Array.to_list rows
          |> List.map (fun row -> partial @ [ { alias; cols; row } ]))
        acc)
    [ [] ] sources

let rec eval_cond cat (env : env) = function
  | Ast.True_ -> T3.True
  | Ast.Cmp (op, a, b) -> T3.cmp op (eval_expr env a) (eval_expr env b)
  | Ast.And (a, b) -> T3.and_ (eval_cond cat env a) (eval_cond cat env b)
  | Ast.Or (a, b) -> T3.or_ (eval_cond cat env a) (eval_cond cat env b)
  | Ast.Not a -> T3.not_ (eval_cond cat env a)
  | Ast.Is_null e -> T3.of_bool (Value.is_null (eval_expr env e))
  | Ast.Is_not_null e -> T3.of_bool (not (Value.is_null (eval_expr env e)))
  | Ast.Between (x, lo, hi) ->
      let v = eval_expr env x in
      T3.and_
        (T3.cmp T3.Ge v (eval_expr env lo))
        (T3.cmp T3.Le v (eval_expr env hi))
  | Ast.In_list (e, vs) ->
      let x = eval_expr env e in
      T3.disj (List.map (fun v -> T3.cmp T3.Eq x v) vs)
  | Ast.Like (e, pattern) -> (
      match eval_expr env e with
      | Value.Null -> T3.Unknown
      | Value.String s -> T3.of_bool (Expr.like_match ~pattern s)
      | v -> eval_error "LIKE on a non-string value: %s" (Value.to_string v))
  | Ast.Exists q -> T3.of_bool (has_rows cat env q)
  | Ast.Not_exists q -> T3.of_bool (not (has_rows cat env q))
  | Ast.In_query (e, q) ->
      let x = eval_expr env e in
      T3.disj (List.map (fun v -> T3.cmp T3.Eq x v) (sub_values cat env q))
  | Ast.Not_in_query (e, q) ->
      let x = eval_expr env e in
      T3.conj (List.map (fun v -> T3.cmp T3.Neq x v) (sub_values cat env q))
  | Ast.Quant_cmp (e, op, quant, q) -> (
      let x = eval_expr env e in
      let verdicts =
        List.map (fun v -> T3.cmp op x v) (sub_values cat env q)
      in
      match quant with Ast.Any -> T3.disj verdicts | Ast.All -> T3.conj verdicts)
  | Ast.Scalar_cmp (e, op, q) -> (
      let x = eval_expr env e in
      match sub_values cat env q with
      | [] -> T3.Unknown
      | [ v ] -> T3.cmp op x v
      | _ :: _ :: _ -> eval_error "scalar subquery returned more than one row")

(* the environments of a subquery's qualifying tuples, with the outer
   scopes still visible (that is the whole point of a reference
   evaluator: correlation by plain lexical scoping, re-run per outer
   tuple).  DISTINCT inside a subquery cannot change any linking
   verdict or aggregate we support, so it is ignored. *)
and sub_envs cat (outer : env) (q : Ast.query) : env list =
  if q.Ast.group_by <> [] then unsupported "GROUP BY in a subquery";
  if q.Ast.having <> None then unsupported "HAVING in a subquery";
  if q.Ast.order_by <> [] then unsupported "ORDER BY in a subquery";
  if q.Ast.limit <> None then unsupported "LIMIT in a subquery";
  from_frames cat q.Ast.from
  |> List.filter_map (fun frame ->
         let env = frame :: outer in
         match q.Ast.where with
         | None -> Some env
         | Some c ->
             if T3.to_bool (eval_cond cat env c) then Some env else None)

(* an aggregate subquery without GROUP BY or HAVING returns its one row
   even over an empty group *)
and has_rows cat outer (q : Ast.query) =
  match q.Ast.select with
  | [ Ast.Sel_expr (Ast.Agg _, _) ]
    when q.Ast.group_by = [] && q.Ast.having = None ->
      true
  | _ -> sub_envs cat outer q <> []

(* a subquery's value set: one value per qualifying tuple, or the
   one-row aggregate (COUNT of an empty group is 0; the rest NULL) *)
and sub_values cat outer (q : Ast.query) : Value.t list =
  let envs = sub_envs cat outer q in
  match q.Ast.select with
  | [ Ast.Sel_expr (Ast.Agg (f, arg), _) ] -> [ eval_agg f arg envs ]
  | [ Ast.Sel_expr (e, _) ] -> List.map (fun env -> eval_expr env e) envs
  | _ -> unsupported "subquery must select exactly one expression"

let select_row env (items : Ast.select_item list) : Row.t =
  let frame = match env with f :: _ -> f | [] -> [] in
  let of_item = function
    | Ast.Star -> List.concat_map (fun b -> Array.to_list b.row) frame
    | Ast.Table_star t -> (
        match List.find_opt (fun b -> b.alias = t) frame with
        | Some b -> Array.to_list b.row
        | None -> eval_error "unknown table or alias %s" t)
    | Ast.Sel_expr (Ast.Agg _, _) -> unsupported "top-level aggregate"
    | Ast.Sel_expr (e, _) -> [ eval_expr env e ]
  in
  Array.of_list (List.concat_map of_item items)

let rows_of_query cat (q : Ast.query) : Row.t list =
  if q.Ast.group_by <> [] then unsupported "GROUP BY";
  if q.Ast.having <> None then unsupported "HAVING";
  if q.Ast.order_by <> [] then unsupported "ORDER BY";
  if q.Ast.limit <> None then unsupported "LIMIT";
  let envs = sub_envs cat [] { q with Ast.distinct = false } in
  let rows = List.map (fun env -> select_row env q.Ast.select) envs in
  if q.Ast.distinct then List.sort_uniq Row.compare rows else rows

let rows cat sql : (Row.t list, string) result =
  match Sql.Parser.parse_result sql with
  | Error m -> Error m
  | Ok q -> (
      try Ok (rows_of_query cat q) with
      | Unsupported m -> Error ("unsupported: " ^ m)
      | Eval_error m -> Error m
      | Value.Type_error m -> Error m)

(* ---------- canonical rendering for byte-level comparison ---------- *)

let csv_of_rows (rows : Row.t list) : string =
  List.sort Row.compare rows
  |> List.map (fun row ->
         Array.to_list row |> List.map Value.to_string |> String.concat ",")
  |> String.concat "\n"

let sorted_csv cat sql : (string, string) result =
  Result.map csv_of_rows (rows cat sql)

let relation_csv (rel : Relation.t) : string =
  csv_of_rows (Array.to_list (Relation.rows rel))
