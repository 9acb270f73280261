open Nra_relational
open Nra_storage
module Ast = Nra_sql.Ast
module R = Resolved
module T3 = Three_valued

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type binding = {
  uid : string;
  alias : string;
  source : string option;
  table : Table.t;
}

type link_op =
  | L_exists
  | L_not_exists
  | L_in of R.rexpr
  | L_not_in of R.rexpr
  | L_quant of R.rexpr * T3.cmpop * [ `Any | `All ]
  | L_scalar of R.rexpr * T3.cmpop

type block = {
  id : int;
  bindings : binding list;
  local : R.rcond list;
  correlated : R.rcond list;
  linked_attr : R.rexpr option;
  scalar_agg : (Ast.agg_func * R.rexpr option) option;
  marker : R.rcol;
  children : child list;
  self_contained : bool;
  static : bool;
  reducible : bool;
  equi : (R.rcol * R.rexpr) list;
  equi_correlation : (R.rcol * R.rexpr) list option;
}

and child = { link : link_op; block : block }

type agg_call = { func : Ast.agg_func; arg : R.rexpr option }

type oexpr =
  | O_expr of R.rexpr
  | O_agg of agg_call
  | O_bin of Ast.binop * oexpr * oexpr
  | O_neg of oexpr

type ocond =
  | O_true
  | O_cmp of T3.cmpop * oexpr * oexpr
  | O_and of ocond * ocond
  | O_or of ocond * ocond
  | O_not of ocond
  | O_is_null of oexpr
  | O_is_not_null of oexpr

type output = {
  select : (oexpr * string) list;
  distinct : bool;
  group_by : R.rexpr list;
  having : ocond option;
  order_by : (oexpr * [ `Asc | `Desc ]) list;
  limit : int option;
}

type t = {
  root : block;
  output : output;
  blocks : block list;
  depth : int;
  linear : bool;
  by_uid : (string * binding) list;
}

let is_positive = function
  | L_exists | L_in _ | L_quant (_, _, `Any) -> true
  | L_not_exists | L_not_in _ | L_quant (_, _, `All) -> false
  | L_scalar _ -> false (* treated like a negative: empty result matters *)

(* Positivity of a linking *site*: a positive link may discard outer
   tuples whose group is empty (σ instead of σ̄, semijoin instead of
   outer join + nest).  An aggregate-linking (type-JA) child is never
   positive regardless of its link operator — the aggregate of an empty
   group is a value (COUNT → 0, SUM/MIN/MAX/AVG → NULL), so the empty
   group must survive to the linking selection. *)
let child_positive (c : child) =
  c.block.scalar_agg = None && is_positive c.link

let block_uids b = List.map (fun bd -> bd.uid) b.bindings

(* ---------- negation normal form over subquery predicates ----------

   Negation is pushed through the boolean structure so that every
   subquery predicate surfaces as a (possibly negated-operator) conjunct.
   All rewrites are exact in three-valued logic:
   NOT (x θ SOME S) = x θ' ALL S with θ' the complement of θ, etc. *)

let rec nnf (c : Ast.cond) : Ast.cond =
  match c with
  | Ast.Not c -> negate c
  | Ast.And (a, b) -> Ast.And (nnf a, nnf b)
  | Ast.Or (a, b) -> Ast.Or (nnf a, nnf b)
  | c -> c

and negate (c : Ast.cond) : Ast.cond =
  match c with
  | Ast.True_ -> Ast.Not Ast.True_
  | Ast.Not c -> nnf c
  | Ast.And (a, b) -> Ast.Or (negate a, negate b)
  | Ast.Or (a, b) -> Ast.And (negate a, negate b)
  | Ast.Cmp (op, a, b) -> Ast.Cmp (T3.negate_op op, a, b)
  | Ast.Is_null e -> Ast.Is_not_null e
  | Ast.Is_not_null e -> Ast.Is_null e
  | Ast.Exists q -> Ast.Not_exists q
  | Ast.Not_exists q -> Ast.Exists q
  | Ast.In_query (e, q) -> Ast.Not_in_query (e, q)
  | Ast.Not_in_query (e, q) -> Ast.In_query (e, q)
  | Ast.Quant_cmp (e, op, Ast.Any, q) ->
      Ast.Quant_cmp (e, T3.negate_op op, Ast.All, q)
  | Ast.Quant_cmp (e, op, Ast.All, q) ->
      Ast.Quant_cmp (e, T3.negate_op op, Ast.Any, q)
  | Ast.Scalar_cmp (e, op, q) -> Ast.Scalar_cmp (e, T3.negate_op op, q)
  | Ast.Between _ | Ast.In_list _ | Ast.Like _ -> Ast.Not c

(* ---------- scopes and name resolution ---------- *)

type scope = { block_id : int; sbindings : binding list }

let binding_has_col bd name = Schema.mem (Table.schema bd.table) name

let rec with_alias t = function
  | [] -> None
  | bd :: rest -> if String.equal bd.alias t then Some bd else with_alias t rest

let rec any_with_col name = function
  | [] -> false
  | bd :: rest -> binding_has_col bd name || any_with_col name rest

(* the one binding of a scope with the column, if any *)
let rec unique_with_col name = function
  | [] -> None
  | bd :: rest when binding_has_col bd name ->
      if any_with_col name rest then error "ambiguous column %s" name
      else Some bd
  | _ :: rest -> unique_with_col name rest

let resolve_col scopes ?table name : R.rcol =
  let qualified t =
    let rec go = function
      | [] -> error "unknown table or alias %s (for column %s.%s)" t t name
      | sc :: rest -> (
          match with_alias t sc.sbindings with
          | Some bd ->
              if binding_has_col bd name then
                { R.uid = bd.uid; col = name; block_id = sc.block_id }
              else error "table %s has no column %s" t name
          | None -> go rest)
    in
    go scopes
  in
  let unqualified () =
    let rec go = function
      | [] -> error "unknown column %s" name
      | sc :: rest -> (
          match unique_with_col name sc.sbindings with
          | Some bd -> { R.uid = bd.uid; col = name; block_id = sc.block_id }
          | None -> go rest)
    in
    go scopes
  in
  match table with Some t -> qualified t | None -> unqualified ()

let rec resolve_expr scopes (e : Ast.expr) : R.rexpr =
  match e with
  | Ast.Col (t, n) -> R.RCol (resolve_col scopes ?table:t n)
  | Ast.Lit v -> R.RLit v
  | Ast.Binop (op, a, b) ->
      R.RBin (op, resolve_expr scopes a, resolve_expr scopes b)
  | Ast.Neg a -> R.RNeg (resolve_expr scopes a)
  | Ast.Agg _ -> error "aggregate function not allowed in this position"

let rec resolve_cond scopes (c : Ast.cond) : R.rcond =
  match c with
  | Ast.True_ -> R.RTrue
  | Ast.Cmp (op, a, b) ->
      R.RCmp (op, resolve_expr scopes a, resolve_expr scopes b)
  | Ast.And (a, b) -> R.RAnd (resolve_cond scopes a, resolve_cond scopes b)
  | Ast.Or (a, b) -> R.ROr (resolve_cond scopes a, resolve_cond scopes b)
  | Ast.Not a -> R.RNot (resolve_cond scopes a)
  | Ast.Is_null e -> R.RIs_null (resolve_expr scopes e)
  | Ast.Is_not_null e -> R.RIs_not_null (resolve_expr scopes e)
  | Ast.Between (e, lo, hi) ->
      R.RBetween
        (resolve_expr scopes e, resolve_expr scopes lo,
         resolve_expr scopes hi)
  | Ast.In_list (e, vs) -> R.RIn_list (resolve_expr scopes e, vs)
  | Ast.Like (e, pattern) -> R.RLike (resolve_expr scopes e, pattern)
  | Ast.Exists _ | Ast.Not_exists _ | Ast.In_query _ | Ast.Not_in_query _
  | Ast.Quant_cmp _ | Ast.Scalar_cmp _ ->
      error "subquery in an unsupported position (must be a conjunct of WHERE)"

(* ---------- block construction ---------- *)

type builder = {
  catalog : Catalog.t;
  ctes : (string * Table.t) list;
  mutable next_id : int;
  mutable uids : string list;
  mutable all_bindings : (string * binding) list;
}

let fresh_uid bld ~alias ~block_id =
  let candidate =
    if List.mem alias bld.uids then Printf.sprintf "%s_%d" alias block_id
    else alias
  in
  let rec unique c k =
    if List.mem c bld.uids then unique (Printf.sprintf "%s_%d" candidate k) (k + 1)
    else c
  in
  let uid = unique candidate 0 in
  bld.uids <- uid :: bld.uids;
  uid

let make_bindings bld ~block_id (from : (string * string option) list) =
  if from = [] then error "FROM clause is empty";
  let seen = ref [] in
  List.map
    (fun (tname, alias_opt) ->
      (* a statement-local relation shadows the catalog table *)
      let table, source =
        match List.assoc_opt tname bld.ctes with
        | Some t -> (t, None)
        | None -> (
            match Catalog.table_opt bld.catalog tname with
            | Some t -> (t, Some tname)
            | None -> error "unknown table %s" tname)
      in
      let alias = Option.value ~default:tname alias_opt in
      if List.mem alias !seen then
        error "duplicate table alias %s in one FROM clause" alias;
      seen := alias :: !seen;
      let uid = fresh_uid bld ~alias ~block_id in
      let binding =
        { uid; alias; source; table = Table.alias table uid }
      in
      bld.all_bindings <- (uid, binding) :: bld.all_bindings;
      binding)
    from

let check_subquery_shape (q : Ast.query) =
  if q.Ast.group_by <> [] then error "GROUP BY in a subquery is not supported";
  if q.Ast.having <> None then error "HAVING in a subquery is not supported";
  if q.Ast.order_by <> [] then
    error "ORDER BY in a subquery is not supported";
  if q.Ast.limit <> None then error "LIMIT in a subquery is not supported"

let agg_name = function
  | Ast.Count_star | Ast.Count -> "count"
  | Ast.Sum -> "sum"
  | Ast.Avg -> "avg"
  | Ast.Min -> "min"
  | Ast.Max -> "max"

type want = W_exists | W_one | W_scalar

let rec ast_has_agg = function
  | Ast.Agg _ -> true
  | Ast.Binop (_, a, b) -> ast_has_agg a || ast_has_agg b
  | Ast.Neg a -> ast_has_agg a
  | Ast.Col _ | Ast.Lit _ -> false

(* An aggregate without GROUP BY or HAVING returns exactly one row, even
   over an empty group: EXISTS over it holds and NOT EXISTS fails,
   whatever its FROM and WHERE select. *)
let one_row_aggregate (q : Ast.query) =
  q.Ast.group_by = [] && q.Ast.having = None
  && List.exists
       (function Ast.Sel_expr (e, _) -> ast_has_agg e | _ -> false)
       q.Ast.select

(* The least block id the subtree references through linked attributes
   and aggregate arguments ([attr]) and through correlated predicates
   ([corr]); [max_int] when there is none.  A column resolves only to
   its own block or an enclosing one, and ids are numbered in pre-order,
   so a reference from inside the subtree of block [b] leaves it exactly
   when its id is below [b.id]. *)
type reach = { attr : int; corr : int }

let rec mentions id = function
  | R.RCol c -> c.R.block_id = id
  | R.RLit _ -> false
  | R.RBin (_, a, b) -> mentions id a || mentions id b
  | R.RNeg a -> mentions id a

(* The correlated predicates of the shape [inner_column =
   outer_expression] of block [id], as (inner column, outer expression)
   pairs *)
let rec equi_of id = function
  | [] -> []
  | R.RCmp (T3.Eq, R.RCol c, e) :: rest
    when c.R.block_id = id && not (mentions id e) ->
      (c, e) :: equi_of id rest
  | R.RCmp (T3.Eq, e, R.RCol c) :: rest
    when c.R.block_id = id && not (mentions id e) ->
      (c, e) :: equi_of id rest
  | _ :: rest -> equi_of id rest

let rec build bld scopes (q : Ast.query) ~want : block * reach =
  bld.next_id <- bld.next_id + 1;
  let id = bld.next_id in
  let bindings = make_bindings bld ~block_id:id q.Ast.from in
  let scope = { block_id = id; sbindings = bindings } in
  let scopes' = scope :: scopes in
  (* the block's output attribute *)
  let linked_attr, scalar_agg =
    match want with
    | W_exists -> (None, None)
    | W_one -> (
        match q.Ast.select with
        (* type JA: the subquery's one output row is an aggregate; IN
           and θ SOME/ALL then compare against that singleton *)
        | [ Ast.Sel_expr (Ast.Agg (f, arg), _) ] ->
            (None, Some (f, Option.map (resolve_expr scopes') arg))
        | [ Ast.Sel_expr (e, _) ] -> (Some (resolve_expr scopes' e), None)
        | [ Ast.Star ] | _ ->
            error "IN/quantified subquery must select exactly one expression")
    | W_scalar -> (
        match q.Ast.select with
        | [ Ast.Sel_expr (Ast.Agg (f, arg), _) ] ->
            (None, Some (f, Option.map (resolve_expr scopes') arg))
        | [ Ast.Sel_expr (e, _) ] -> (Some (resolve_expr scopes' e), None)
        | _ -> error "scalar subquery must select exactly one expression")
  in
  (* conjuncts *)
  let where = Option.value ~default:Ast.True_ q.Ast.where in
  let conjs = Ast.cond_conjuncts (nnf where) in
  let local = ref [] and correlated = ref [] and children = ref [] in
  let add_plain c =
    let rc = resolve_cond scopes' c in
    (* a column resolves to this block or an enclosing one, whose ids
       are below [id] *)
    if R.cond_least_block rc >= id then local := rc :: !local
    else correlated := rc :: !correlated
  in
  let add_child link sub ~want =
    let b, reach = build bld scopes' sub ~want in
    children := ({ link; block = b }, reach) :: !children
  in
  (* decided here; the block is still built, so its names resolve as
     they would anywhere *)
  let add_constant sub holds =
    check_subquery_shape sub;
    ignore (build bld scopes' sub ~want:W_exists : block * reach);
    if not holds then add_plain (Ast.Not Ast.True_)
  in
  List.iter
    (fun c ->
      match c with
      | Ast.Exists sub when one_row_aggregate sub -> add_constant sub true
      | Ast.Not_exists sub when one_row_aggregate sub ->
          add_constant sub false
      | Ast.Exists sub ->
          check_subquery_shape sub;
          add_child L_exists sub ~want:W_exists
      | Ast.Not_exists sub ->
          check_subquery_shape sub;
          add_child L_not_exists sub ~want:W_exists
      | Ast.In_query (e, sub) ->
          check_subquery_shape sub;
          add_child (L_in (resolve_expr scopes' e)) sub ~want:W_one
      | Ast.Not_in_query (e, sub) ->
          check_subquery_shape sub;
          add_child (L_not_in (resolve_expr scopes' e)) sub ~want:W_one
      | Ast.Quant_cmp (e, op, quant, sub) ->
          check_subquery_shape sub;
          let quant = match quant with Ast.Any -> `Any | Ast.All -> `All in
          add_child (L_quant (resolve_expr scopes' e, op, quant)) sub
            ~want:W_one
      | Ast.Scalar_cmp (e, op, sub) ->
          check_subquery_shape sub;
          add_child (L_scalar (resolve_expr scopes' e, op)) sub ~want:W_scalar
      | c ->
          if Ast.subqueries c <> [] then
            error
              "subquery under OR or in another non-conjunct position is not \
               supported"
          else add_plain c)
    conjs;
  let first = List.hd bindings in
  let marker_col =
    match Table.key_columns first.table with
    | k :: _ -> k
    | [] -> error "table %s has no primary key" first.alias
  in
  let correlated = List.rev !correlated and kids = List.rev !children in
  let parent = match scopes with sc :: _ -> sc.block_id | [] -> 0 in
  let attr =
    let of_expr = function
      | Some e -> R.expr_least_block e
      | None -> max_int
    in
    min (of_expr linked_attr)
      (match scalar_agg with Some (_, arg) -> of_expr arg | None -> max_int)
  in
  let corr =
    List.fold_left (fun m rc -> min m (R.cond_least_block rc)) max_int
      correlated
  in
  (* everything below the block, its own correlated predicates aside *)
  let below =
    List.fold_left (fun m (_, r) -> min m (min r.attr r.corr)) attr kids
  in
  let reach =
    List.fold_left
      (fun r (_, k) -> { attr = min r.attr k.attr; corr = min r.corr k.corr })
      { attr; corr } kids
  in
  let equi = equi_of id correlated in
  ( {
      id;
      bindings;
      local = List.rev !local;
      correlated;
      linked_attr;
      scalar_agg;
      marker = { R.uid = first.uid; col = marker_col; block_id = id };
      children = List.map fst kids;
      self_contained = below >= id;
      static = reach.corr = max_int && reach.attr >= id;
      (* correlated predicates may read this block and its parent only,
         and every other ancestor's id is below the parent's *)
      reducible =
        corr >= parent
        && (match linked_attr with
           | Some e -> R.expr_least_block e >= id
           | None -> true)
        && List.for_all (fun (c, _) -> c.block.reducible) kids;
      equi;
      equi_correlation =
        (if equi <> [] && List.compare_lengths equi correlated = 0 then
           Some equi
         else None);
    },
    reach )

(* ---------- outer output ---------- *)

(* Keep aggregate-free subtrees whole (a single [O_expr]), so that the
   grouped-output rewriter can match them against GROUP BY keys
   structurally. *)
let rec resolve_oexpr scopes (e : Ast.expr) : oexpr =
  if not (ast_has_agg e) then O_expr (resolve_expr scopes e)
  else
    match e with
    | Ast.Agg (f, arg) ->
        O_agg { func = f; arg = Option.map (resolve_expr scopes) arg }
    | Ast.Binop (op, a, b) ->
        O_bin (op, resolve_oexpr scopes a, resolve_oexpr scopes b)
    | Ast.Neg a -> O_neg (resolve_oexpr scopes a)
    | Ast.Col _ | Ast.Lit _ -> assert false

let rec resolve_ocond scopes (c : Ast.cond) : ocond =
  match c with
  | Ast.True_ -> O_true
  | Ast.Cmp (op, a, b) ->
      O_cmp (op, resolve_oexpr scopes a, resolve_oexpr scopes b)
  | Ast.And (a, b) -> O_and (resolve_ocond scopes a, resolve_ocond scopes b)
  | Ast.Or (a, b) -> O_or (resolve_ocond scopes a, resolve_ocond scopes b)
  | Ast.Not a -> O_not (resolve_ocond scopes a)
  | Ast.Is_null e -> O_is_null (resolve_oexpr scopes e)
  | Ast.Is_not_null e -> O_is_not_null (resolve_oexpr scopes e)
  | _ -> error "unsupported condition in HAVING"

let output_of bld scopes (q : Ast.query) root_bindings : output =
  ignore bld;
  (* synthetic columns (e.g. a CTE's __rowid) stay out of SELECT * and
     t.* but remain individually addressable *)
  let hidden (c : Schema.column) =
    String.length c.Schema.name >= 2 && String.sub c.Schema.name 0 2 = "__"
  in
  let expand_binding (bd : binding) =
    Array.to_list (Schema.columns (Table.schema bd.table))
    |> List.filter (fun c -> not (hidden c))
    |> List.map (fun (c : Schema.column) ->
           ( O_expr
               (R.RCol { R.uid = bd.uid; col = c.Schema.name; block_id = 1 }),
             c.Schema.name ))
  in
  let select =
    List.concat_map
      (function
        | Ast.Table_star t -> (
            match
              List.find_opt (fun bd -> String.equal bd.alias t) root_bindings
            with
            | Some bd -> expand_binding bd
            | None -> error "unknown table or alias %s in %s.*" t t)
        | Ast.Star -> List.concat_map expand_binding root_bindings
        | Ast.Sel_expr (e, alias) ->
            let name =
              match (alias, e) with
              | Some a, _ -> a
              | None, Ast.Col (_, n) -> n
              | None, Ast.Agg (f, _) -> agg_name f
              | None, _ -> "expr"
            in
            [ (resolve_oexpr scopes e, name) ])
      q.Ast.select
  in
  (* ORDER BY resolves against the select-list names first (SQL's alias
     scope), then against the frame *)
  let resolve_order e =
    match e with
    | Ast.Col (None, name) -> (
        match List.assoc_opt name (List.map (fun (o, n) -> (n, o)) select) with
        | Some o -> o
        | None -> resolve_oexpr scopes e)
    | e -> resolve_oexpr scopes e
  in
  {
    select;
    distinct = q.Ast.distinct;
    group_by = List.map (resolve_expr scopes) q.Ast.group_by;
    having = Option.map (resolve_ocond scopes) q.Ast.having;
    order_by = List.map (fun (e, d) -> (resolve_order e, d)) q.Ast.order_by;
    limit = q.Ast.limit;
  }

(* ---------- whole-query analysis ---------- *)

let rec collect_blocks b = b :: List.concat_map (fun c -> collect_blocks c.block) b.children

let rec block_depth b =
  match b.children with
  | [] -> 0
  | cs -> 1 + List.fold_left (fun d c -> max d (block_depth c.block)) 0 cs

let linear_of root =
  let rec go b parent_id =
    List.length b.children <= 1
    && List.for_all
         (fun rc ->
           match List.filter (fun i -> i <> b.id) (R.cond_blocks rc) with
           | [] -> true
           | [ j ] -> j = parent_id
           | _ -> false)
         b.correlated
    && List.for_all (fun c -> go c.block b.id) b.children
  in
  (* the root has no correlated predicates by construction *)
  List.length root.children <= 1
  && List.for_all (fun c -> go c.block root.id) root.children

let analyze ?(ctes = []) catalog (q : Ast.query) : t =
  let bld = { catalog; ctes; next_id = 0; uids = []; all_bindings = [] } in
  let root, _ = build bld [] q ~want:W_exists in
  let root_scope = { block_id = root.id; sbindings = root.bindings } in
  let output = output_of bld [ root_scope ] q root.bindings in
  let blocks = collect_blocks root in
  {
    root;
    output;
    blocks;
    depth = block_depth root;
    linear = linear_of root;
    by_uid = bld.all_bindings;
  }

let analyze_string catalog src =
  match Nra_sql.Parser.parse_result src with
  | Stdlib.Error m -> Stdlib.Error ("parse error: " ^ m)
  | Stdlib.Ok q -> (
      match analyze catalog q with
      | t -> Stdlib.Ok t
      | exception Error m -> Stdlib.Error m)

let binding_of_col t (c : R.rcol) = List.assoc_opt c.R.uid t.by_uid

let col_not_null t (c : R.rcol) =
  match binding_of_col t c with
  | None -> false
  | Some bd -> (
      let schema = Table.schema bd.table in
      match Schema.find_opt schema ~table:c.R.uid c.R.col with
      | Some i -> (Schema.col schema i).Schema.not_null
      | None -> false)

let rec expr_not_nullable t (e : R.rexpr) =
  match e with
  | R.RCol c -> col_not_null t c
  | R.RLit v -> not (Value.is_null v)
  | R.RBin (Ast.Div, _, _) -> false (* division by zero yields NULL *)
  | R.RBin (_, a, b) -> expr_not_nullable t a && expr_not_nullable t b
  | R.RNeg a -> expr_not_nullable t a

(* ---------- printing: the paper's tree expression ---------- *)

let pp_link ppf = function
  | L_exists -> Format.pp_print_string ppf "EXISTS"
  | L_not_exists -> Format.pp_print_string ppf "NOT EXISTS"
  | L_in e -> Format.fprintf ppf "%a IN" R.pp_expr e
  | L_not_in e -> Format.fprintf ppf "%a NOT IN" R.pp_expr e
  | L_quant (e, op, q) ->
      Format.fprintf ppf "%a %s %s" R.pp_expr e (T3.cmpop_to_string op)
        (match q with `Any -> "ANY" | `All -> "ALL")
  | L_scalar (e, op) ->
      Format.fprintf ppf "%a %s (scalar)" R.pp_expr e (T3.cmpop_to_string op)

let rec pp_block ppf b =
  Format.fprintf ppf "@[<v 2>T%d: %s%a" b.id
    (String.concat "," (List.map (fun bd -> bd.alias) b.bindings))
    (fun ppf l ->
      if l <> [] then
        Format.fprintf ppf " [local: %a]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
             R.pp_cond)
          l)
    b.local;
  if b.correlated <> [] then
    Format.fprintf ppf " [corr: %a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         R.pp_cond)
      b.correlated;
  (match b.scalar_agg with
  | Some (f, arg) ->
      Format.fprintf ppf " [agg: %s(%s)]" (agg_name f)
        (match arg with
        | Some e -> Format.asprintf "%a" R.pp_expr e
        | None -> "*")
  | None -> ());
  List.iter
    (fun c -> Format.fprintf ppf "@,%a -> %a" pp_link c.link pp_block c.block)
    b.children;
  Format.fprintf ppf "@]"
