open Nra_relational
open Nra_planner
open Nra_nested
module A = Analyze
module R = Resolved
module LP = Link_pred
module T3 = Three_valued
module Ast = Nra_sql.Ast
module Agg = Nra_algebra.Aggregate

type t = {
  pred : LP.t;
  keep : (Expr.scalar * Schema.column) list;
  linked : int option;
  marker : int option;
}

let guess_ty schema = function
  | Expr.Col i -> (Schema.col schema i).Schema.ty
  | _ -> Ttype.Float

let compile ~key_schema ~wide_schema ~with_marker (c : A.child) =
  let b = c.A.block in
  let keep_col name e =
    let s = Frame.to_scalar wide_schema e in
    (s, Schema.column name (guess_ty wide_schema s))
  in
  let keep_b =
    match (c.A.link, b.A.linked_attr, b.A.scalar_agg) with
    | (A.L_in _ | A.L_not_in _ | A.L_quant _ | A.L_scalar _), Some e, _
    | ( (A.L_in _ | A.L_not_in _ | A.L_quant _ | A.L_scalar _),
        None,
        Some (_, Some e) ) ->
        [ keep_col "__b" e ]
    | _ -> []
  in
  let keep_m =
    if with_marker then [ keep_col "__m" (R.RCol b.A.marker) ] else []
  in
  let keep = keep_b @ keep_m in
  let linked = if keep_b = [] then None else Some 0 in
  let marker = if with_marker then Some (List.length keep - 1) else None in
  let a_scalar e = Frame.to_scalar key_schema e in
  (* type JA: the subquery's value set is the aggregate's singleton {v},
     so IN ≡ (= v), NOT IN ≡ (<> v), and θ SOME ≡ θ ALL ≡ (θ v) — all
     under 3VL (NULL on either side → Unknown); the aggregate reads the
     linked attribute at keep position 0 *)
  let agg a op (f, arg) =
    let func =
      match (f, arg) with
      | Ast.Count_star, _ -> Agg.Count_star
      | Ast.Count, Some _ -> Agg.Count (Expr.Col 0)
      | Ast.Sum, Some _ -> Agg.Sum (Expr.Col 0)
      | Ast.Avg, Some _ -> Agg.Avg (Expr.Col 0)
      | Ast.Min, Some _ -> Agg.Min (Expr.Col 0)
      | Ast.Max, Some _ -> Agg.Max (Expr.Col 0)
      | _, None -> raise (Frame.Unsupported "aggregate without argument")
    in
    LP.Agg (a_scalar a, op, func)
  in
  let quant a op q = LP.Quant (a_scalar a, op, q, 0) in
  let pred =
    match (c.A.link, b.A.scalar_agg) with
    | A.L_exists, _ -> LP.Non_empty
    | A.L_not_exists, _ -> LP.Is_empty
    | A.L_in a, Some f -> agg a T3.Eq f
    | A.L_not_in a, Some f -> agg a T3.Neq f
    | A.L_quant (a, op, _), Some f -> agg a op f
    | A.L_scalar (a, op), Some f -> agg a op f
    | A.L_in a, None -> quant a T3.Eq LP.Some_
    | A.L_not_in a, None -> quant a T3.Neq LP.All
    | A.L_quant (a, op, `Any), None -> quant a op LP.Some_
    | A.L_quant (a, op, `All), None -> quant a op LP.All
    | A.L_scalar (a, op), None -> LP.Scalar (a_scalar a, op, 0)
  in
  { pred; keep; linked; marker }

let linked_of lk =
  match lk.linked with
  | None -> fun _ -> Value.Null
  | Some i -> (
      match fst (List.nth lk.keep i) with
      | Expr.Col j -> fun row -> row.(j)
      | e -> fun row -> Expr.eval_scalar row e)

(* ---------- keyed sets ----------

   A {!Keyed} table over the inner rows, or over the ones a selection
   vector names, under the equi-probe NULL rule; its arrays are
   borrowed from [Scratch] for the extent of the scope. *)

(* An outer row's probe key: the row itself, read at the key columns'
   positions, or — when a key is computed — one buffer per scope the
   keys are evaluated into. *)
type prober = { ppos : int array; exprs : Expr.scalar array; pkey : Row.t }

let prober probe =
  let k = Array.length probe in
  if Array.for_all (function Expr.Col _ -> true | _ -> false) probe then
    {
      ppos = Array.map (function Expr.Col i -> i | _ -> assert false) probe;
      exprs = [||];
      pkey = [||];
    }
  else
    { ppos = Array.init k Fun.id; exprs = probe; pkey = Row.nulls k }

let probe_row p outer =
  if Array.length p.exprs = 0 then outer
  else begin
    for i = 0 to Array.length p.exprs - 1 do
      p.pkey.(i) <- Expr.eval_scalar outer p.exprs.(i)
    done;
    p.pkey
  end

let inner_keys inner_schema pairs =
  Array.of_list
    (List.map
       (fun (col, _) ->
         match Frame.to_scalar inner_schema (R.RCol col) with
         | Expr.Col j -> j
         | _ -> assert false)
       pairs)

let outer_keys key_schema pairs =
  Array.of_list (List.map (fun (_, e) -> Frame.to_scalar key_schema e) pairs)

type group = {
  table : Keyed.t;
  prober : prober;
  linked : Row.t -> Value.t;
  f : LP.fold;
  outer_free : bool;
  mutable memo : int;
      (** outer-free only: the key whose fold [f] holds, as the key's
          first entry; -1 the empty set, -2 none *)
}

let with_group ?sel ?buckets lk ~keys ~probe ~tick rows f =
  let tick = if tick then Some Nra_guard.Guard.tick else None in
  Keyed.with_scratch ~nulls:`Skip ?sel ?buckets ?tick ~pos:keys rows
  @@ fun table ->
  f
    {
      table;
      prober = prober probe;
      linked = linked_of lk;
      f = LP.fold lk.pred;
      outer_free = LP.outer_free lk.pred;
      memo = -2;
    }

(* step the probe key's entries from [j] on, in row order, until the
   verdict is decided *)
let rec fold_from g prow j =
  if j >= 0 then begin
    LP.step g.f (g.linked (Keyed.row g.table j));
    if not (LP.decided g.f) then
      fold_from g prow (Keyed.next_equal g.table g.prober.ppos prow j)
  end

let decide g outer =
  let prow = probe_row g.prober outer in
  let j = Keyed.first g.table g.prober.ppos prow in
  if g.outer_free then begin
    (* the set does not depend on [outer]: fold each probed key once
       while it is probed in a run (a shared set: once) *)
    if j <> g.memo then begin
      g.memo <- -2;
      LP.clear g.f;
      fold_from g prow j;
      g.memo <- j
    end;
    LP.verdict g.f ~outer
  end
  else begin
    LP.start g.f ~outer;
    fold_from g prow j;
    LP.finish g.f
  end

type magic = Keyed.t

let with_magic_set ~probe outer f =
  let p = prober probe in
  let rows =
    if Array.length p.exprs = 0 then outer
    else Array.map (fun row -> Array.copy (probe_row p row)) outer
  in
  Keyed.with_scratch ~nulls:`Skip ~tick:Nra_guard.Guard.tick ~pos:p.ppos
    rows f

let restrict magic ~keys rel =
  let rows = Relation.rows rel in
  let m = Array.length rows in
  Scratch.with_ints m @@ fun kept ->
  let count = ref 0 in
  for j = 0 to m - 1 do
    Nra_guard.Guard.tick ();
    if Keyed.first magic keys rows.(j) >= 0 then begin
      kept.(!count) <- j;
      incr count
    end
  done;
  Relation.gather rel kept !count
