open Nra_relational
open Nra_storage
open Nra_planner
module A = Analyze
module R = Resolved
module T3 = Three_valued

type index = Unknown | Rescan | Probe of string list

(* One statement's cardinality context.  [card] and [fanout] memoise
   [block_card] and [fanout] per block, and [index] the catalog's
   [index_cols], indexed by the block's id (dense from 1, see
   [Analyze]); NaN and [Unknown] mark a slot not yet computed. *)
type env = {
  cat : Catalog.t;
  analysis : A.t;
  card : float array;
  fan : float array;
  index : index array;
}

let make_env cat (analysis : A.t) =
  let slots =
    1 + List.fold_left (fun m (b : A.block) -> max m b.A.id) 0 analysis.A.blocks
  in
  {
    cat;
    analysis;
    card = Array.make slots Float.nan;
    fan = Array.make slots Float.nan;
    index = Array.make slots Unknown;
  }

let catalog env = env.cat
let analysis env = env.analysis

let clamp x = min 1.0 (max 0.0 x)
let third = 1.0 /. 3.0

(* a statement-local relation has no ANALYZE snapshot *)
let table_stats env (bd : A.binding) =
  match bd.A.source with Some name -> Catalog.stats env.cat name | None -> None

let col_stats env (c : R.rcol) =
  match A.binding_of_col env.analysis c with
  | None -> None
  | Some bd -> table_stats env bd
               |> Fun.flip Option.bind (fun ts -> Table_stats.col ts c.R.col)

let table_rows (bd : A.binding) =
  float_of_int (Table.cardinality bd.A.table)

let ndv env (c : R.rcol) =
  match col_stats env c with
  | Some cs when cs.Col_stats.ndv > 0 -> float_of_int cs.Col_stats.ndv
  | _ -> (
      match A.binding_of_col env.analysis c with
      | Some bd ->
          let rows = table_rows bd in
          (* a declared single-column key is unique; otherwise the
             System-R-era default of rows/10 distinct values *)
          if Table.key_columns bd.A.table = [ c.R.col ] then max 1.0 rows
          else max 1.0 (rows /. 10.0)
      | None -> 100.0)

let null_frac env (c : R.rcol) =
  match col_stats env c with
  | Some cs -> Col_stats.null_frac cs
  | None -> 0.0

(* NULL propagates through expressions: P(e is NULL) under column
   independence *)
let expr_null_frac env e =
  let cols = R.expr_cols e in
  1.0
  -. List.fold_left (fun acc c -> acc *. (1.0 -. null_frac env c)) 1.0 cols

(* ---------- 3VL selectivity algebra ---------- *)

let and3 (t1, u1) (t2, u2) =
  (t1 *. t2, clamp ((t1 *. u2) +. (u1 *. t2) +. (u1 *. u2)))

let or3 (t1, u1) (t2, u2) =
  let f1 = clamp (1.0 -. t1 -. u1) and f2 = clamp (1.0 -. t2 -. u2) in
  let f = f1 *. f2 in
  let u = clamp ((f1 *. u2) +. (u1 *. f2) +. (u1 *. u2)) in
  (clamp (1.0 -. f -. u), u)

let not3 (t, u) = (clamp (1.0 -. t -. u), u)

let default_cmp = function
  | T3.Eq -> 0.1
  | T3.Neq -> 0.9
  | T3.Lt | T3.Le | T3.Gt | T3.Ge -> third

let col_lit env op c v =
  match col_stats env c with
  | Some cs -> Col_stats.sel_cmp cs op v
  | None ->
      if Value.is_null v then (0.0, 1.0) else (default_cmp op, 0.0)

let rec cond_sel env (rc : R.rcond) : float * float =
  match rc with
  | R.RTrue -> (1.0, 0.0)
  | R.RCmp (op, R.RCol c, R.RLit v) -> col_lit env op c v
  | R.RCmp (op, R.RLit v, R.RCol c) -> col_lit env (T3.flip_op op) c v
  | R.RCmp (op, R.RCol a, R.RCol b) ->
      let u =
        clamp
          (1.0 -. ((1.0 -. null_frac env a) *. (1.0 -. null_frac env b)))
      in
      let n = max (ndv env a) (ndv env b) in
      let t =
        match op with
        | T3.Eq -> 1.0 /. n
        | T3.Neq -> 1.0 -. (1.0 /. n)
        | T3.Lt | T3.Le | T3.Gt | T3.Ge -> third
      in
      (clamp (t *. (1.0 -. u)), u)
  | R.RCmp (op, e1, e2) ->
      let u =
        clamp
          (1.0
          -. (1.0 -. expr_null_frac env e1) *. (1.0 -. expr_null_frac env e2)
          )
      in
      (clamp (default_cmp op *. (1.0 -. u)), u)
  | R.RAnd (a, b) -> and3 (cond_sel env a) (cond_sel env b)
  | R.ROr (a, b) -> or3 (cond_sel env a) (cond_sel env b)
  | R.RNot c -> not3 (cond_sel env c)
  | R.RIs_null e -> (clamp (expr_null_frac env e), 0.0)
  | R.RIs_not_null e -> (clamp (1.0 -. expr_null_frac env e), 0.0)
  | R.RBetween (e, lo, hi) ->
      cond_sel env (R.RAnd (R.RCmp (T3.Ge, e, lo), R.RCmp (T3.Le, e, hi)))
  | R.RIn_list (R.RCol c, vs) ->
      let nf = null_frac env c in
      let eq =
        match col_stats env c with
        | Some cs -> Col_stats.eq_sel cs
        | None -> 0.1
      in
      let n = List.length (List.sort_uniq Value.compare vs) in
      (clamp (float_of_int n *. eq), nf)
  | R.RIn_list (e, vs) ->
      ( clamp (0.1 *. float_of_int (List.length vs)),
        clamp (expr_null_frac env e) )
  | R.RLike (e, _) -> (0.1, clamp (expr_null_frac env e))

(* ---------- block-level quantities ---------- *)

let local_sel env (b : A.block) =
  fst
    (List.fold_left
       (fun acc rc -> and3 acc (cond_sel env rc))
       (1.0, 0.0) b.A.local)

let block_base_rows _env (b : A.block) =
  List.fold_left (fun acc bd -> acc *. table_rows bd) 1.0 b.A.bindings

(* [memo] is [block_card]'s or [fanout]'s table: the value kept for
   [b], or [compute env b] kept for the next call (a block outside the
   context's analysis is computed every time) *)
let memo memo compute env (b : A.block) =
  let id = b.A.id in
  if id >= Array.length memo then compute env b
  else
    let v = memo.(id) in
    if Float.is_nan v then begin
      let v = compute env b in
      memo.(id) <- v;
      v
    end
    else v

let block_card env b =
  memo env.card (fun env b -> block_base_rows env b *. local_sel env b) env b

(* per-outer-tuple selectivity of one correlated conjunct: the inner
   side fixed to the block's column, the outer side a constant for the
   duration of the probe *)
let corr_conjunct_sel env (b : A.block) rc =
  let inner (c : R.rcol) = c.R.block_id = b.A.id in
  let outer e = not (List.mem b.A.id (R.expr_blocks e)) in
  let per_tuple op (c : R.rcol) =
    let n = max 1.0 (ndv env c) in
    let nn = 1.0 -. null_frac env c in
    match op with
    | T3.Eq -> nn /. n
    | T3.Neq -> nn *. (1.0 -. (1.0 /. n))
    | T3.Lt | T3.Le | T3.Gt | T3.Ge -> nn *. third
  in
  match rc with
  | R.RCmp (op, R.RCol c, e) when inner c && outer e -> per_tuple op c
  | R.RCmp (op, e, R.RCol c) when inner c && outer e ->
      per_tuple (T3.flip_op op) c
  | _ -> fst (cond_sel env rc) |> fun t -> max t third

let corr_sel env (b : A.block) =
  List.fold_left
    (fun acc rc -> acc *. corr_conjunct_sel env b rc)
    1.0 b.A.correlated

let fanout env b =
  memo env.fan (fun env b -> block_card env b *. corr_sel env b) env b

let probe_fanout env (b : A.block) cols =
  let per_col acc col =
    let c = { R.uid = (List.hd b.A.bindings).A.uid; col; block_id = b.A.id }
    in
    acc /. max 1.0 (ndv env c)
  in
  List.fold_left per_col (block_base_rows env b) cols

let pages_per_value env (bd : A.binding) col ~fallback =
  match
    table_stats env bd
    |> Fun.flip Option.bind (fun ts -> Table_stats.col ts col)
  with
  | Some cs when cs.Col_stats.pages_per_value > 0.0 ->
      cs.Col_stats.pages_per_value
  | _ -> fallback

let index_cols env (b : A.block) =
  let choose () =
    match (b.A.bindings, b.A.equi) with
    | [ bd ], (_ :: _ as equi) -> (
        match
          Nra_exec.Naive.index_choice env.cat bd
            (List.map (fun ((c : R.rcol), _) -> c.R.col) equi)
        with
        | Some cols -> Probe cols
        | None -> Rescan)
    | _ -> Rescan
  in
  let id = b.A.id in
  let slot =
    if id >= Array.length env.index then choose ()
    else
      match env.index.(id) with
      | Unknown ->
          let v = choose () in
          env.index.(id) <- v;
          v
      | v -> v
  in
  match slot with Probe cols -> Some cols | Rescan | Unknown -> None
