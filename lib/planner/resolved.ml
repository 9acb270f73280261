open Nra_relational
module Ast = Nra_sql.Ast

type rcol = { uid : string; col : string; block_id : int }

type rexpr =
  | RCol of rcol
  | RLit of Value.t
  | RBin of Ast.binop * rexpr * rexpr
  | RNeg of rexpr

type rcond =
  | RTrue
  | RCmp of Three_valued.cmpop * rexpr * rexpr
  | RAnd of rcond * rcond
  | ROr of rcond * rcond
  | RNot of rcond
  | RIs_null of rexpr
  | RIs_not_null of rexpr
  | RBetween of rexpr * rexpr * rexpr
  | RIn_list of rexpr * Value.t list
  | RLike of rexpr * string

let rec expr_cols_acc acc = function
  | RCol c -> c :: acc
  | RLit _ -> acc
  | RBin (_, a, b) -> expr_cols_acc (expr_cols_acc acc a) b
  | RNeg a -> expr_cols_acc acc a

let rec cond_cols_acc acc = function
  | RTrue -> acc
  | RCmp (_, a, b) -> expr_cols_acc (expr_cols_acc acc a) b
  | RAnd (a, b) | ROr (a, b) -> cond_cols_acc (cond_cols_acc acc a) b
  | RNot a -> cond_cols_acc acc a
  | RIs_null a | RIs_not_null a | RIn_list (a, _) | RLike (a, _) ->
      expr_cols_acc acc a
  | RBetween (a, lo, hi) ->
      expr_cols_acc (expr_cols_acc (expr_cols_acc acc a) lo) hi

let rec expr_least_block = function
  | RCol c -> c.block_id
  | RLit _ -> max_int
  | RBin (_, a, b) -> min (expr_least_block a) (expr_least_block b)
  | RNeg a -> expr_least_block a

let rec cond_least_block = function
  | RTrue -> max_int
  | RCmp (_, a, b) -> min (expr_least_block a) (expr_least_block b)
  | RAnd (a, b) | ROr (a, b) -> min (cond_least_block a) (cond_least_block b)
  | RNot a -> cond_least_block a
  | RIs_null a | RIs_not_null a | RIn_list (a, _) | RLike (a, _) ->
      expr_least_block a
  | RBetween (a, lo, hi) ->
      min (expr_least_block a) (min (expr_least_block lo) (expr_least_block hi))

let expr_cols e = List.rev (expr_cols_acc [] e)
let cond_cols c = List.rev (cond_cols_acc [] c)

let blocks_of cols =
  List.sort_uniq Int.compare (List.map (fun c -> c.block_id) cols)

let expr_blocks e = blocks_of (expr_cols e)
let cond_blocks c = blocks_of (cond_cols c)

exception Unbound of string

let find_col schema { uid; col; _ } =
  match Schema.find_opt schema ~table:uid col with
  | Some i -> i
  | None -> raise (Unbound (uid ^ "." ^ col))

let rec to_scalar schema = function
  | RCol c -> Expr.Col (find_col schema c)
  | RLit v -> Expr.Const v
  | RBin (op, a, b) ->
      let a = to_scalar schema a and b = to_scalar schema b in
      (match op with
      | Ast.Add -> Expr.Add (a, b)
      | Ast.Sub -> Expr.Sub (a, b)
      | Ast.Mul -> Expr.Mul (a, b)
      | Ast.Div -> Expr.Div (a, b))
  | RNeg a -> Expr.Neg (to_scalar schema a)

let rec to_pred schema = function
  | RTrue -> Expr.true_
  | RCmp (op, a, b) -> Expr.Cmp (op, to_scalar schema a, to_scalar schema b)
  | RAnd (a, b) -> Expr.And (to_pred schema a, to_pred schema b)
  | ROr (a, b) -> Expr.Or (to_pred schema a, to_pred schema b)
  | RNot a -> Expr.Not (to_pred schema a)
  | RIs_null a -> Expr.Is_null (to_scalar schema a)
  | RIs_not_null a -> Expr.Is_not_null (to_scalar schema a)
  | RBetween (a, lo, hi) ->
      Expr.Between (to_scalar schema a, to_scalar schema lo,
        to_scalar schema hi)
  | RIn_list (a, vs) -> Expr.In_list (to_scalar schema a, vs)
  | RLike (a, pattern) -> Expr.Like (to_scalar schema a, pattern)

let rec equal_expr a b =
  match (a, b) with
  | RCol x, RCol y ->
      String.equal x.uid y.uid && String.equal x.col y.col
      && x.block_id = y.block_id
  | RLit x, RLit y -> Value.equal x y
  | RBin (o1, a1, b1), RBin (o2, a2, b2) ->
      o1 = o2 && equal_expr a1 a2 && equal_expr b1 b2
  | RNeg x, RNeg y -> equal_expr x y
  | _ -> false

let binop_str = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"

let rec pp_expr ppf = function
  | RCol c -> Format.fprintf ppf "%s.%s" c.uid c.col
  | RLit v -> Value.pp ppf v
  | RBin (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | RNeg a -> Format.fprintf ppf "(- %a)" pp_expr a

let rec pp_cond ppf = function
  | RTrue -> Format.pp_print_string ppf "true"
  | RCmp (op, a, b) ->
      Format.fprintf ppf "%a %s %a" pp_expr a
        (Three_valued.cmpop_to_string op)
        pp_expr b
  | RAnd (a, b) -> Format.fprintf ppf "(%a and %a)" pp_cond a pp_cond b
  | ROr (a, b) -> Format.fprintf ppf "(%a or %a)" pp_cond a pp_cond b
  | RNot a -> Format.fprintf ppf "(not %a)" pp_cond a
  | RIs_null a -> Format.fprintf ppf "%a is null" pp_expr a
  | RIs_not_null a -> Format.fprintf ppf "%a is not null" pp_expr a
  | RBetween (a, lo, hi) ->
      Format.fprintf ppf "%a between %a and %a" pp_expr a pp_expr lo
        pp_expr hi
  | RLike (a, pattern) -> Format.fprintf ppf "%a like '%s'" pp_expr a pattern
  | RIn_list (a, vs) ->
      Format.fprintf ppf "%a in (%a)" pp_expr a
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Value.pp)
        vs
