open Nra_relational
open Nra_storage
open Nra_planner
module A = Analyze
module R = Resolved
module T3 = Three_valued

type probe = { cols : string list; rows : float; pages_per_value : float }

let rescan = { cols = []; rows = 0.0; pages_per_value = 0.0 }

(* One statement's cardinality context.  [card] and [fanout] memoise
   [block_card] and [fanout] per block, and [index] [index_probe],
   indexed by the block's id (dense from 1, see
   [Analyze]); NaN and [None] mark a slot not yet computed. *)
type env = {
  cat : Catalog.t;
  analysis : A.t;
  card : float array;
  fan : float array;
  index : probe option array;
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
    index = Array.make slots None;
  }

let catalog env = env.cat
let analysis env = env.analysis

(* [min 1.0 (max 0.0 x)], without boxing [x] for the polymorphic
   [min] and [max] *)
let clamp x =
  let m = if 0.0 >= x then 0.0 else x in
  if 1.0 <= m then 1.0 else m

(* [max a b] on floats, without boxing them for the polymorphic [max] *)
let fmax (a : float) b = if a >= b then a else b

let third = 1.0 /. 3.0

(* a statement-local relation has no ANALYZE snapshot *)
let table_stats env (bd : A.binding) =
  match bd.A.source with Some name -> Catalog.stats env.cat name | None -> None

let binding_col_stats env bd col =
  match table_stats env bd with
  | Some ts -> Table_stats.col ts col
  | None -> None

let col_stats env (c : R.rcol) =
  match A.binding_of_col env.analysis c with
  | None -> None
  | Some bd -> binding_col_stats env bd c.R.col

let table_rows (bd : A.binding) =
  float_of_int (Table.cardinality bd.A.table)

(* the NDV of the binding's column [col], [cs] its statistics *)
let binding_ndv (bd : A.binding) col cs =
  match cs with
  | Some cs when cs.Col_stats.ndv > 0 -> float_of_int cs.Col_stats.ndv
  | _ ->
      let rows = table_rows bd in
      (* a declared single-column key is unique; otherwise the
         System-R-era default of rows/10 distinct values *)
      if Table.key_columns bd.A.table = [ col ] then fmax 1.0 rows
      else fmax 1.0 (rows /. 10.0)

let ndv env (c : R.rcol) =
  match A.binding_of_col env.analysis c with
  | Some bd -> binding_ndv bd c.R.col (binding_col_stats env bd c.R.col)
  | None -> 100.0

let null_frac env (c : R.rcol) =
  match col_stats env c with
  | Some cs -> Col_stats.null_frac cs
  | None -> 0.0

(* NULL propagates through expressions: P(e is NULL) under column
   independence *)
let rec not_null_frac env acc = function
  | [] -> acc
  | c :: rest -> not_null_frac env (acc *. (1.0 -. null_frac env c)) rest

let expr_null_frac env e = 1.0 -. not_null_frac env 1.0 (R.expr_cols e)

(* ---------- 3VL selectivity algebra ---------- *)

type sel = { t : float; u : float }

let and3 a b =
  { t = a.t *. b.t; u = clamp ((a.t *. b.u) +. (a.u *. b.t) +. (a.u *. b.u)) }

let or3 a b =
  let f1 = clamp (1.0 -. a.t -. a.u) and f2 = clamp (1.0 -. b.t -. b.u) in
  let f = f1 *. f2 in
  let u = clamp ((f1 *. b.u) +. (a.u *. f2) +. (a.u *. b.u)) in
  { t = clamp (1.0 -. f -. u); u }

let not3 s = { t = clamp (1.0 -. s.t -. s.u); u = s.u }

let default_cmp = function
  | T3.Eq -> 0.1
  | T3.Neq -> 0.9
  | T3.Lt | T3.Le | T3.Gt | T3.Ge -> third

let col_lit env op c v =
  match col_stats env c with
  | Some cs ->
      let t, u = Col_stats.sel_cmp cs op v in
      { t; u }
  | None ->
      if Value.is_null v then { t = 0.0; u = 1.0 }
      else { t = default_cmp op; u = 0.0 }

let rec cond_sel env (rc : R.rcond) : sel =
  match rc with
  | R.RTrue -> { t = 1.0; u = 0.0 }
  | R.RCmp (op, R.RCol c, R.RLit v) -> col_lit env op c v
  | R.RCmp (op, R.RLit v, R.RCol c) -> col_lit env (T3.flip_op op) c v
  | R.RCmp (op, R.RCol a, R.RCol b) ->
      let u =
        clamp
          (1.0 -. ((1.0 -. null_frac env a) *. (1.0 -. null_frac env b)))
      in
      let n = fmax (ndv env a) (ndv env b) in
      let t =
        match op with
        | T3.Eq -> 1.0 /. n
        | T3.Neq -> 1.0 -. (1.0 /. n)
        | T3.Lt | T3.Le | T3.Gt | T3.Ge -> third
      in
      { t = clamp (t *. (1.0 -. u)); u }
  | R.RCmp (op, e1, e2) ->
      let u =
        clamp
          (1.0
          -. (1.0 -. expr_null_frac env e1) *. (1.0 -. expr_null_frac env e2)
          )
      in
      { t = clamp (default_cmp op *. (1.0 -. u)); u }
  | R.RAnd (a, b) -> and3 (cond_sel env a) (cond_sel env b)
  | R.ROr (a, b) -> or3 (cond_sel env a) (cond_sel env b)
  | R.RNot c -> not3 (cond_sel env c)
  | R.RIs_null e -> { t = clamp (expr_null_frac env e); u = 0.0 }
  | R.RIs_not_null e -> { t = clamp (1.0 -. expr_null_frac env e); u = 0.0 }
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
      { t = clamp (float_of_int n *. eq); u = nf }
  | R.RIn_list (e, vs) ->
      {
        t = clamp (0.1 *. float_of_int (List.length vs));
        u = clamp (expr_null_frac env e);
      }
  | R.RLike (e, _) -> { t = 0.1; u = clamp (expr_null_frac env e) }

(* ---------- block-level quantities ---------- *)

let rec and_conjuncts env acc = function
  | [] -> acc
  | rc :: rest -> and_conjuncts env (and3 acc (cond_sel env rc)) rest

let local_sel env (b : A.block) =
  (and_conjuncts env { t = 1.0; u = 0.0 } b.A.local).t

let rec rows_product acc = function
  | [] -> acc
  | bd :: rest -> rows_product (acc *. table_rows bd) rest

let block_base_rows (b : A.block) = rows_product 1.0 b.A.bindings

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
  memo env.card (fun env b -> block_base_rows b *. local_sel env b) env b

(* per-outer-tuple selectivity of one correlated conjunct: the inner
   side fixed to the block's column, the outer side a constant for the
   duration of the probe *)
let per_tuple env op (c : R.rcol) =
  let n = fmax 1.0 (ndv env c) in
  let nn = 1.0 -. null_frac env c in
  match op with
  | T3.Eq -> nn /. n
  | T3.Neq -> nn *. (1.0 -. (1.0 /. n))
  | T3.Lt | T3.Le | T3.Gt | T3.Ge -> nn *. third

let corr_conjunct_sel env (b : A.block) rc =
  let inner (c : R.rcol) = c.R.block_id = b.A.id in
  let outer e = not (List.mem b.A.id (R.expr_blocks e)) in
  match rc with
  | R.RCmp (op, R.RCol c, e) when inner c && outer e -> per_tuple env op c
  | R.RCmp (op, e, R.RCol c) when inner c && outer e ->
      per_tuple env (T3.flip_op op) c
  | _ -> fmax (cond_sel env rc).t third

let rec corr_product env b acc = function
  | [] -> acc
  | rc :: rest ->
      corr_product env b (acc *. corr_conjunct_sel env b rc) rest

let fanout env b =
  memo env.fan
    (fun env (b : A.block) ->
      block_card env b *. corr_product env b 1.0 b.A.correlated)
    env b

(* base rows × Π 1/ndv over the probed columns of the block's one
   binding *)
let rec per_col env bd acc = function
  | [] -> acc
  | col :: rest ->
      let n = binding_ndv bd col (binding_col_stats env bd col) in
      per_col env bd (acc /. fmax 1.0 n) rest

let rec equi_cols = function
  | [] -> []
  | ((c : R.rcol), _) :: rest -> c.R.col :: equi_cols rest

let index_probe env (b : A.block) =
  let choose () =
    match (b.A.bindings, b.A.equi) with
    | [ bd ], (_ :: _ as equi) -> (
        match Nra_exec.Naive.index_choice env.cat bd (equi_cols equi) with
        | Some (col :: _ as cols) ->
            let ppv =
              match binding_col_stats env bd col with
              | Some cs -> cs.Col_stats.pages_per_value
              | None -> 0.0
            in
            {
              cols;
              rows = per_col env bd (block_base_rows b) cols;
              pages_per_value = ppv;
            }
        | Some [] | None -> rescan)
    | _ -> rescan
  in
  let id = b.A.id in
  if id >= Array.length env.index then choose ()
  else
    match env.index.(id) with
    | Some p -> p
    | None ->
        let p = choose () in
        env.index.(id) <- Some p;
        p
