(* The NRA plan: one node per linking site (the planner's
   [Analyze.child]), carrying the implementation that site runs.  [lift]
   is the only place a site's implementation is chosen from the
   strategy's options; the executor runs the plan as given, explain
   renders it, the cost model prices it, and the rewriter edits its
   [impl] fields.  [admissible] holds each implementation's structural
   preconditions, which the rewriter proposes against and the executor
   asserts. *)

open Nra_planner
module A = Analyze

type options = {
  pipelined : bool;
  bottom_up_linear : bool;
  push_down_nest : bool;
  positive_simplify : bool;
}

type nest = { pipelined : bool; assume_sorted : bool }

type impl =
  | Shared_set
  | Push_down
  | Semijoin
  | Bottom_up of nest
  | Top_down of nest

type node = {
  child : A.child;
  impl : impl;
  sub : node list;
  discard_ok : bool;
      (* may the linking selection discard failing tuples here (σ), or
         must it NULL-pad (σ̄)?  Discard holds at the outermost level and
         propagates through positive links only. *)
}

type t = { analyzed : A.t; roots : node list }

(* ---------- structural preconditions ---------- *)

let admits_at (c : A.child) ~discard_ok impl =
  let b = c.A.block in
  match impl with
  | Shared_set -> b.A.self_contained && b.A.correlated = []
  | Push_down -> b.A.self_contained && b.A.equi_correlation <> None
  | Semijoin ->
      b.A.children = [] && discard_ok
      && A.child_positive c
      && b.A.correlated <> []
  | Bottom_up _ -> b.A.self_contained
  | Top_down _ -> true

let admits n impl = admits_at n.child ~discard_ok:n.discard_ok impl
let admissible n = admits n n.impl

(* a site rewritten away from Top_down reduces its subtree standalone,
   where the subtree is outermost and discarding is always allowed *)
let sub_discard ~discard_ok impl (c : A.child) =
  match impl with
  | Top_down _ -> discard_ok && A.child_positive c
  | Shared_set | Push_down | Semijoin | Bottom_up _ -> true

(* ---------- lifting: the five-way choice ---------- *)

(* each site takes the first admissible implementation, in this order,
   among those the options enable; Top_down is always admissible *)
let rec lift_child (base : options) ~discard_ok (c : A.child) =
  let ok = admits_at c ~discard_ok in
  let impl =
    if ok Shared_set then Shared_set
    else if base.push_down_nest && ok Push_down then Push_down
    else if base.positive_simplify && ok Semijoin then Semijoin
    else
      let nest = { pipelined = base.pipelined; assume_sorted = false } in
      if base.bottom_up_linear && ok (Bottom_up nest) then Bottom_up nest
      else Top_down nest
  in
  let sub_discard = sub_discard ~discard_ok impl c in
  {
    child = c;
    impl;
    sub =
      List.map
        (lift_child base ~discard_ok:sub_discard)
        c.A.block.A.children;
    discard_ok;
  }

let lift ~base (analyzed : A.t) =
  {
    analyzed;
    roots =
      List.map (lift_child base ~discard_ok:true) analyzed.A.root.A.children;
  }

(* ---------- traversal ---------- *)

let rec fold_node f acc n = List.fold_left (fold_node f) (f acc n) n.sub
let fold f acc p = List.fold_left (fold_node f) acc p.roots
let nodes p = List.rev (fold (fun acc n -> n :: acc) [] p)

let find p id = List.find_opt (fun n -> n.child.A.block.A.id = id) (nodes p)

(* ---------- rewriting ---------- *)

let rec map_node f n =
  let n = f n in
  { n with sub = List.map (map_node f) n.sub }

let replace p ~id ~impl =
  {
    p with
    roots =
      List.map
        (map_node (fun n ->
             if n.child.A.block.A.id = id then { n with impl } else n))
        p.roots;
  }

(* After an impl change the discard contexts downstream may have
   changed; recompute them top-down so the plan agrees with what the
   executor will do. *)
let renormalize p =
  let rec renorm ~discard_ok n =
    let sub_discard = sub_discard ~discard_ok n.impl n.child in
    {
      n with
      discard_ok;
      sub = List.map (renorm ~discard_ok:sub_discard) n.sub;
    }
  in
  { p with roots = List.map (renorm ~discard_ok:true) p.roots }

(* ---------- rendering ---------- *)

let nest_to_string n =
  if n.pipelined then "υ-pipelined"
  else if n.assume_sorted then "υ-fused"
  else "υ-materialized"

let impl_to_string = function
  | Shared_set -> "shared-set"
  | Push_down -> "push-down"
  | Semijoin -> "semijoin"
  | Bottom_up n -> Printf.sprintf "bottom-up(%s)" (nest_to_string n)
  | Top_down n -> Printf.sprintf "top-down(%s)" (nest_to_string n)
