open Nra_relational
open Nra_planner
module A = Analyze
module R = Resolved
module T3 = Three_valued
module J = Nra_algebra.Join

type strategy = Semijoin | Antijoin | Iterate

let strategy_to_string = function
  | Semijoin -> "semijoin"
  | Antijoin -> "antijoin"
  | Iterate -> "nested-iteration"

let choose t (c : A.child) : strategy =
  let b = c.A.block in
  if not b.A.reducible then Iterate
  else if b.A.scalar_agg <> None then
    (* type JA: the link compares against a per-group aggregate, and an
       empty group still produces a value (COUNT → 0, others → NULL) —
       no join against the element rows can express that *)
    Iterate
  else
    match c.A.link with
    | A.L_exists | A.L_in _ | A.L_quant (_, _, `Any) -> Semijoin
    | A.L_not_exists -> Antijoin
    | A.L_not_in a | A.L_quant (a, _, `All) ->
        let linked_ok =
          match b.A.linked_attr with
          | Some e -> A.expr_not_nullable t e
          | None -> false
        in
        if A.expr_not_nullable t a && linked_ok then Antijoin else Iterate
    | A.L_scalar _ -> Iterate

(* in pre-order, reversed *)
let rec plan_block t acc (b : A.block) =
  List.fold_left
    (fun acc (c : A.child) ->
      plan_block t ((c.A.block.A.id, choose t c) :: acc) c.A.block)
    acc b.A.children

let plan _cat t = List.rev (plan_block t [] t.A.root)

(* Join condition for the (anti/semi)join of [rel] (parent side) with the
   reduced child: correlated conjuncts plus the linking comparison. *)
let join_condition concat_schema (c : A.child) =
  let b = c.A.block in
  let corr = Frame.to_pred concat_schema b.A.correlated in
  let linking =
    match (c.A.link, b.A.linked_attr) with
    | (A.L_exists | A.L_not_exists), _ -> Expr.true_
    | A.L_in a, Some e ->
        Expr.Cmp
          (T3.Eq, Frame.to_scalar concat_schema a,
           Frame.to_scalar concat_schema e)
    | A.L_quant (a, op, `Any), Some e ->
        Expr.Cmp
          (op, Frame.to_scalar concat_schema a,
           Frame.to_scalar concat_schema e)
    | A.L_not_in a, Some e ->
        (* NOT IN fails exactly on an equal element *)
        Expr.Cmp
          (T3.Eq, Frame.to_scalar concat_schema a,
           Frame.to_scalar concat_schema e)
    | A.L_quant (a, op, `All), Some e ->
        (* θ ALL fails exactly on a complement-matching element *)
        Expr.Cmp
          (T3.negate_op op, Frame.to_scalar concat_schema a,
           Frame.to_scalar concat_schema e)
    | (A.L_in _ | A.L_not_in _ | A.L_quant _ | A.L_scalar _), _ ->
        invalid_arg "join_condition: missing linked attribute"
  in
  Expr.And (corr, linking)

let rec reduce cat t (b : A.block) : Relation.t =
  let rel = Frame.block_relation b in
  List.fold_left (fun rel c -> apply_child cat t rel c) rel
    b.A.children

and apply_child cat t rel (c : A.child) : Relation.t =
  let b = c.A.block in
  match choose t c with
  | Iterate ->
      let k = Naive.compile cat t (Relation.schema rel) c in
      Relation.filter
        (fun row ->
          Nra_guard.Guard.tick ();
          T3.to_bool (k row))
        rel
  | (Semijoin | Antijoin) as s -> (
      let child_rel = reduce cat t b in
      (* uncorrelated EXISTS-style links reduce to an emptiness test,
         avoiding a degenerate nested-loop join on TRUE *)
      match (b.A.correlated, c.A.link) with
      | [], A.L_exists ->
          if Relation.is_empty child_rel then
            Relation.make (Relation.schema rel) [||]
          else rel
      | [], A.L_not_exists ->
          if Relation.is_empty child_rel then rel
          else Relation.make (Relation.schema rel) [||]
      | _ ->
          let concat_schema =
            Schema.append (Relation.schema rel) (Relation.schema child_rel)
          in
          let on = join_condition concat_schema c in
          let kind = match s with Semijoin -> J.Semi | _ -> J.Anti in
          J.join kind ~on rel child_rel)

let run_where cat t = reduce cat t t.A.root
let run cat t = Post.apply t.A.output (run_where cat t)
