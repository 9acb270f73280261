open Nra_relational
module T3 = Three_valued

type quant = Some_ | All

type t =
  | Quant of Expr.scalar * T3.cmpop * quant * int
  | Non_empty
  | Is_empty
  | Agg of Expr.scalar * T3.cmpop * Nra_algebra.Aggregate.func
  | Scalar of Expr.scalar * T3.cmpop * int

(* The verdict as a left-to-right fold.  [x] is the outer side, [n]
   counts the elements stepped, [r] is the running verdict: the 3VL
   disjunction (SOME, from False) or conjunction (ALL, from True) so
   far, or a scalar link's one comparison.  Disjunction and conjunction
   are associative and commutative under 3VL, so the fold equals the
   n-ary [T3.disj]/[T3.conj] of the whole set; an aggregate's value is
   folded by [Aggregate]'s own accumulator, in element order. *)
type fold = {
  pred : t;
  agg : Nra_algebra.Aggregate.acc;
  mutable x : Value.t;
  mutable n : int;
  mutable r : T3.t;
}

let init_verdict = function Quant (_, _, All, _) -> T3.True | _ -> T3.False

let fold pred =
  let func =
    match pred with
    | Agg (_, _, f) -> f
    | Quant _ | Non_empty | Is_empty | Scalar _ ->
        Nra_algebra.Aggregate.Count_star
  in
  {
    pred;
    agg = Nra_algebra.Aggregate.start func;
    x = Value.Null;
    n = 0;
    r = init_verdict pred;
  }

let outer_value p outer =
  match p with
  | Quant (a, _, _, _) | Agg (a, _, _) | Scalar (a, _, _) ->
      Expr.eval_scalar outer a
  | Non_empty | Is_empty -> Value.Null

let clear f =
  f.n <- 0;
  f.r <- init_verdict f.pred;
  Nra_algebra.Aggregate.reset f.agg

let start f ~outer =
  f.x <- outer_value f.pred outer;
  clear f

let step f v =
  (match f.pred with
  | Non_empty | Is_empty -> ()
  | Quant (_, op, Some_, _) -> (
      match f.r with
      | T3.True -> ()
      | r -> f.r <- T3.or_ r (T3.cmp op f.x v))
  | Quant (_, op, All, _) -> (
      match f.r with
      | T3.False -> ()
      | r -> f.r <- T3.and_ r (T3.cmp op f.x v))
  | Scalar (_, op, _) ->
      if f.n > 0 then failwith "scalar subquery returned more than one row";
      f.r <- T3.cmp op f.x v
  | Agg _ -> Nra_algebra.Aggregate.step f.agg v);
  f.n <- f.n + 1

let linked_value p (e : Row.t) =
  match p with
  | Quant (_, _, _, b) | Scalar (_, _, b) -> e.(b)
  | Agg (_, _, func) -> Nra_algebra.Aggregate.arg_value func e
  | Non_empty | Is_empty -> Value.Null

let step_elem f ~marker (e : Row.t) =
  match marker with
  | Some m when Value.is_null e.(m) -> ()
  | _ -> step f (linked_value f.pred e)

let decided f =
  match f.pred with
  | Non_empty | Is_empty -> f.n > 0
  | Quant (_, _, Some_, _) -> T3.equal f.r T3.True
  | Quant (_, _, All, _) -> T3.equal f.r T3.False
  | Scalar _ | Agg _ -> false

let finish f =
  match f.pred with
  | Non_empty -> T3.of_bool (f.n > 0)
  | Is_empty -> T3.of_bool (f.n = 0)
  | Quant _ -> f.r
  | Scalar _ -> if f.n = 0 then T3.Unknown else f.r
  | Agg (_, op, _) ->
      (* aggregate linking (type JA): the set collapses to one value —
         COUNT ∅ = 0, other aggregates of ∅ are NULL — and the
         comparison is a single 3VL test against it *)
      T3.cmp op f.x (Nra_algebra.Aggregate.finish f.agg)

let outer_free = function
  | Non_empty | Is_empty | Agg _ -> true
  | Quant _ | Scalar _ -> false

let verdict f ~outer =
  f.x <- outer_value f.pred outer;
  finish f
