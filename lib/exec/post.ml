open Nra_relational
open Nra_planner
module A = Analyze
module Agg = Nra_algebra.Aggregate
module Ast = Nra_sql.Ast

exception Unsupported of string

let fail fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let rec oexpr_aggs acc = function
  | A.O_expr _ -> acc
  | A.O_agg a -> a :: acc
  | A.O_bin (_, x, y) -> oexpr_aggs (oexpr_aggs acc x) y
  | A.O_neg x -> oexpr_aggs acc x

let rec ocond_aggs acc = function
  | A.O_true -> acc
  | A.O_cmp (_, x, y) -> oexpr_aggs (oexpr_aggs acc x) y
  | A.O_and (x, y) | A.O_or (x, y) -> ocond_aggs (ocond_aggs acc x) y
  | A.O_not x -> ocond_aggs acc x
  | A.O_is_null x | A.O_is_not_null x -> oexpr_aggs acc x

let equal_agg (a : A.agg_call) (b : A.agg_call) =
  a.A.func = b.A.func
  && Option.equal Resolved.equal_expr a.A.arg b.A.arg

let rec oexpr_has_agg = function
  | A.O_expr _ -> false
  | A.O_agg _ -> true
  | A.O_bin (_, x, y) -> oexpr_has_agg x || oexpr_has_agg y
  | A.O_neg x -> oexpr_has_agg x

(* ---------- non-aggregated path ---------- *)

(* Translate an aggregate-free oexpr against the frame. *)
let rec plain_scalar schema = function
  | A.O_expr e -> Resolved.to_scalar schema e
  | A.O_agg _ -> fail "aggregate used without GROUP BY context"
  | A.O_bin (op, x, y) -> (
      let x = plain_scalar schema x and y = plain_scalar schema y in
      match op with
      | Ast.Add -> Expr.Add (x, y)
      | Ast.Sub -> Expr.Sub (x, y)
      | Ast.Mul -> Expr.Mul (x, y)
      | Ast.Div -> Expr.Div (x, y))
  | A.O_neg x -> Expr.Neg (plain_scalar schema x)

let guess_type schema scalar =
  match scalar with
  | Expr.Col i -> (Schema.col schema i).Schema.ty
  | Expr.Const (Value.Int _) -> Ttype.Int
  | Expr.Const (Value.String _) -> Ttype.String
  | Expr.Const (Value.Date _) -> Ttype.Date
  | Expr.Const (Value.Bool _) -> Ttype.Bool
  | _ -> Ttype.Float

(* a relation this module builds, staged under the memory governor *)
let governed rel =
  Nra_storage.Governor.with_staged ~rows:(Relation.cardinality rel)
    ~width:(Schema.arity (Relation.schema rel))

(* Project select columns plus hidden ORDER BY keys, sort, then drop the
   hidden columns.  [?sel] names the frame rows, read in place. *)
let project_sort_limit ?sel ~to_scalar ~(output : A.output) rel =
  let schema = Relation.schema rel in
  let select_cols =
    List.map
      (fun (e, name) ->
        let s = to_scalar schema e in
        (s, Schema.column name (guess_type schema s)))
      output.A.select
  in
  let n_select = List.length select_cols in
  let order_scalars =
    List.map (fun (e, d) -> (to_scalar schema e, d)) output.A.order_by
  in
  if output.A.distinct && output.A.order_by <> [] then begin
    (* DISTINCT: ORDER BY keys must be computable from the select list *)
    let sel_exprs = List.map fst select_cols in
    List.iter
      (fun (s, _) ->
        if not (List.mem s sel_exprs) then
          fail "with DISTINCT, ORDER BY must use selected expressions")
      order_scalars
  end;
  let hidden =
    List.mapi
      (fun i (s, _) -> (s, Schema.column (Printf.sprintf "__ord%d" i)
                          (guess_type schema s)))
      order_scalars
  in
  let projected =
    Nra_algebra.Basic.project_exprs ?sel (select_cols @ hidden) rel
  in
  (* the post-processing projection buffer (select + hidden ORDER BY
     keys) is governed: charged to the memory ledger, spilled through
     the pool when it exceeds the frame budget *)
  governed projected @@ fun () ->
  let projected =
    if output.A.distinct then
      if hidden = [] then Nra_algebra.Basic.distinct projected
      else begin
        (* when DISTINCT and ORDER BY coexist the order keys are select
           expressions (checked above): sort first, then dedup keeping
           first occurrences *)
        let keys =
          List.mapi
            (fun i (_, d) ->
              {
                Nra_algebra.Sort.pos = n_select + i;
                dir =
                  (match d with
                  | `Asc -> Nra_algebra.Sort.Asc
                  | `Desc -> Nra_algebra.Sort.Desc);
              })
            order_scalars
        in
        let sorted = Nra_algebra.Sort.sort keys projected in
        Nra_algebra.Basic.project_cols (List.init n_select Fun.id)
          (Nra_algebra.Basic.distinct sorted)
      end
    else projected
  in
  let projected =
    if (not output.A.distinct) && order_scalars <> [] then
      let keys =
        List.mapi
          (fun i (_, d) ->
            {
              Nra_algebra.Sort.pos = n_select + i;
              dir =
                (match d with
                | `Asc -> Nra_algebra.Sort.Asc
                | `Desc -> Nra_algebra.Sort.Desc);
            })
          order_scalars
      in
      Nra_algebra.Sort.sort keys projected
    else projected
  in
  let visible =
    if Schema.arity (Relation.schema projected) > n_select then
      Nra_algebra.Basic.project_cols (List.init n_select Fun.id) projected
    else projected
  in
  match output.A.limit with
  | Some n -> Nra_algebra.Basic.limit n visible
  | None -> visible

(* ---------- aggregated path ---------- *)

let apply_grouped ?sel (output : A.output) rel =
  let schema = Relation.schema rel in
  (* collect distinct aggregate calls from SELECT, HAVING, ORDER BY *)
  let aggs =
    let all =
      List.concat_map (fun (e, _) -> oexpr_aggs [] e) output.A.select
      @ (match output.A.having with
        | Some h -> ocond_aggs [] h
        | None -> [])
      @ List.concat_map (fun (e, _) -> oexpr_aggs [] e) output.A.order_by
    in
    List.fold_left
      (fun acc a -> if List.exists (equal_agg a) acc then acc else a :: acc)
      [] all
    |> List.rev
  in
  (* stage 1: compute group keys and aggregate inputs as physical specs *)
  let key_exprs = List.map (Resolved.to_scalar schema) output.A.group_by in
  let staged =
    (* materialize key expressions as leading columns so group_by can
       key on positions *)
    let key_cols =
      List.mapi
        (fun i s -> (s, Schema.column (Printf.sprintf "__k%d" i)
                       (guess_type schema s)))
        key_exprs
    in
    let identity_cols =
      Array.to_list (Schema.columns schema)
      |> List.mapi (fun i c -> (Expr.Col i, c))
    in
    Nra_algebra.Basic.project_exprs ?sel (key_cols @ identity_cols) rel
  in
  (* the aggregation staging (group keys + identity frame) is governed
     like every other staged intermediate *)
  governed staged @@ fun () ->
  let nkeys = List.length key_exprs in
  let to_spec i (a : A.agg_call) =
    let arg =
      Option.map
        (fun e ->
          (* original frame columns sit after the staged keys *)
          Expr.shift_scalar nkeys (Resolved.to_scalar schema e))
        a.A.arg
    in
    let func =
      match (a.A.func, arg) with
      | Ast.Count_star, _ -> Agg.Count_star
      | Ast.Count, Some e -> Agg.Count e
      | Ast.Sum, Some e -> Agg.Sum e
      | Ast.Avg, Some e -> Agg.Avg e
      | Ast.Min, Some e -> Agg.Min e
      | Ast.Max, Some e -> Agg.Max e
      | _, None -> fail "aggregate function needs an argument"
    in
    { Agg.func; as_name = Printf.sprintf "__a%d" i }
  in
  let specs = List.mapi to_spec aggs in
  let grouped =
    if nkeys = 0 then Agg.global specs staged
    else Agg.group_by ~keys:(List.init nkeys Fun.id) specs staged
  in
  (* stage 2: rewrite output expressions over the grouped schema *)
  let key_pos i = Expr.Col i in
  let agg_pos i = Expr.Col (nkeys + i) in
  let find_key e =
    let rec idx i = function
      | [] -> None
      | g :: rest ->
          if Resolved.equal_expr g e then Some i else idx (i + 1) rest
    in
    idx 0 output.A.group_by
  in
  let rec rewrite_rexpr (e : Resolved.rexpr) : Expr.scalar =
    match find_key e with
    | Some i -> key_pos i
    | None -> (
        match e with
        | Resolved.RLit v -> Expr.Const v
        | Resolved.RBin (op, a, b) -> (
            let a = rewrite_rexpr a and b = rewrite_rexpr b in
            match op with
            | Ast.Add -> Expr.Add (a, b)
            | Ast.Sub -> Expr.Sub (a, b)
            | Ast.Mul -> Expr.Mul (a, b)
            | Ast.Div -> Expr.Div (a, b))
        | Resolved.RNeg a -> Expr.Neg (rewrite_rexpr a)
        | Resolved.RCol c ->
            fail "column %s.%s must appear in GROUP BY or inside an aggregate"
              c.Resolved.uid c.Resolved.col)
  in
  let rec rewrite_oexpr = function
    | A.O_agg a -> (
        let rec idx i = function
          | [] -> fail "internal: aggregate not collected"
          | g :: rest -> if equal_agg g a then agg_pos i else idx (i + 1) rest
        in
        idx 0 aggs)
    | A.O_expr e -> rewrite_rexpr e
    | A.O_bin (op, x, y) -> (
        let x = rewrite_oexpr x and y = rewrite_oexpr y in
        match op with
        | Ast.Add -> Expr.Add (x, y)
        | Ast.Sub -> Expr.Sub (x, y)
        | Ast.Mul -> Expr.Mul (x, y)
        | Ast.Div -> Expr.Div (x, y))
    | A.O_neg x -> Expr.Neg (rewrite_oexpr x)
  in
  let rec rewrite_ocond = function
    | A.O_true -> Expr.true_
    | A.O_cmp (op, x, y) -> Expr.Cmp (op, rewrite_oexpr x, rewrite_oexpr y)
    | A.O_and (x, y) -> Expr.And (rewrite_ocond x, rewrite_ocond y)
    | A.O_or (x, y) -> Expr.Or (rewrite_ocond x, rewrite_ocond y)
    | A.O_not x -> Expr.Not (rewrite_ocond x)
    | A.O_is_null x -> Expr.Is_null (rewrite_oexpr x)
    | A.O_is_not_null x -> Expr.Is_not_null (rewrite_oexpr x)
  in
  let filtered =
    match output.A.having with
    | None -> grouped
    | Some h -> Nra_algebra.Basic.select (rewrite_ocond h) grouped
  in
  project_sort_limit
    ~to_scalar:(fun _schema e -> rewrite_oexpr e)
    ~output:{ output with A.group_by = []; having = None }
    filtered

let apply ?sel (output : A.output) rel =
  let has_aggs =
    output.A.group_by <> []
    || output.A.having <> None (* HAVING without GROUP BY = global agg *)
    || List.exists (fun (e, _) -> oexpr_has_agg e) output.A.select
    || List.exists (fun (e, _) -> oexpr_has_agg e) output.A.order_by
  in
  if has_aggs then apply_grouped ?sel output rel
  else project_sort_limit ?sel ~to_scalar:plain_scalar ~output rel
