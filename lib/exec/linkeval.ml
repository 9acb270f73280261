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

(* ---------- keyed sets ---------- *)

type keyed =
  | Folds of LP.fold Row.Tbl.t * LP.fold  (* one per key; the empty set *)
  | Values of Value.t list Row.Tbl.t * LP.fold
      (* each key's linked values in order; a scratch fold *)

let key_of keys row = Array.map (Expr.eval_scalar row) keys

let group lk ~keys ~tick rows =
  let linked = linked_of lk in
  (* no key columns: one shared set *)
  let n = if keys = [||] then 1 else max 16 (Array.length rows) in
  let each f =
    Array.iter
      (fun row ->
        if tick then Nra_guard.Guard.tick ();
        let key = key_of keys row in
        if not (Array.exists Value.is_null key) then f key row)
      rows
  in
  if LP.outer_free lk.pred then begin
    let tbl = Row.Tbl.create n in
    each (fun key row ->
        let f =
          match Row.Tbl.find_opt tbl key with
          | Some f -> f
          | None ->
              let f = LP.fold lk.pred in
              LP.clear f;
              Row.Tbl.add tbl key f;
              f
        in
        LP.step f (linked row));
    let empty = LP.fold lk.pred in
    LP.clear empty;
    Folds (tbl, empty)
  end
  else begin
    let tbl = Row.Tbl.create n in
    each (fun key row ->
        let v = linked row in
        match Row.Tbl.find_opt tbl key with
        | Some vs -> Row.Tbl.replace tbl key (v :: vs)
        | None -> Row.Tbl.add tbl key [ v ]);
    Row.Tbl.filter_map_inplace (fun _ vs -> Some (List.rev vs)) tbl;
    Values (tbl, LP.fold lk.pred)
  end

let decide keyed ~key ~outer =
  let null_key = Array.exists Value.is_null key in
  match keyed with
  | Folds (tbl, empty) ->
      let f =
        if null_key then empty
        else Option.value (Row.Tbl.find_opt tbl key) ~default:empty
      in
      LP.verdict f ~outer
  | Values (tbl, f) ->
      LP.start f ~outer;
      (if not null_key then
         match Row.Tbl.find_opt tbl key with
         | Some vs ->
             let rec go = function
               | [] -> ()
               | v :: rest ->
                   LP.step f v;
                   if not (LP.decided f) then go rest
             in
             go vs
         | None -> ());
      LP.finish f
