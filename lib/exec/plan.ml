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

type nest = { pipelined : bool }

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

(* ---------- codes: a site's impl in one byte ---------- *)

(* Every impl a site can take, so a code stands for one shared value:
   Shared_set, Push_down, Semijoin, then Bottom_up and Top_down over the
   two nests (+1 pipelined). *)
let impls =
  [|
    Shared_set;
    Push_down;
    Semijoin;
    Bottom_up { pipelined = false };
    Bottom_up { pipelined = true };
    Top_down { pipelined = false };
    Top_down { pipelined = true };
  |]

let nest_bit pipelined = if pipelined then 1 else 0

let code = function
  | Shared_set -> 0
  | Push_down -> 1
  | Semijoin -> 2
  | Bottom_up { pipelined } -> 3 + nest_bit pipelined
  | Top_down { pipelined } -> 5 + nest_bit pipelined

let of_code c = impls.(c)

(* ---------- sites in pre-order ---------- *)

(* A plan's sites are its analysis' children in pre-order, so a site's
   index in [nodes] order is fixed by the statement. *)
let rec count_sites acc = function
  | [] -> acc
  | (c : A.child) :: rest ->
      count_sites (count_sites (acc + 1) c.A.block.A.children) rest

let site_count (t : A.t) = count_sites 0 t.A.root.A.children

(* ---------- lifting: the five-way choice ---------- *)

(* each site takes the first admissible implementation, in this order,
   among those the options enable; Top_down is always admissible *)
let choose (base : options) ~discard_ok (c : A.child) =
  if admits_at c ~discard_ok Shared_set then Shared_set
  else if base.push_down_nest && admits_at c ~discard_ok Push_down then
    Push_down
  else if base.positive_simplify && admits_at c ~discard_ok Semijoin then
    Semijoin
  else
    let bit = nest_bit base.pipelined in
    if base.bottom_up_linear && admits_at c ~discard_ok impls.(3 + bit) then
      impls.(3 + bit)
    else impls.(5 + bit)

(* The nodes over [cs], the first at site [i], each taking [impl_at i c
   ~discard_ok]; a node's discard context follows from its ancestors'
   impls. *)
let rec build impl_at ~discard_ok i = function
  | [] -> []
  | (c : A.child) :: rest ->
      let impl = impl_at i c ~discard_ok in
      let kids = c.A.block.A.children in
      let sub =
        build impl_at ~discard_ok:(sub_discard ~discard_ok impl c) (i + 1) kids
      in
      { child = c; impl; sub; discard_ok }
      :: build impl_at ~discard_ok (count_sites (i + 1) kids) rest

let make impl_at (analyzed : A.t) =
  {
    analyzed;
    roots = build impl_at ~discard_ok:true 0 analyzed.A.root.A.children;
  }

let lift ~base analyzed =
  make (fun _ c ~discard_ok -> choose base ~discard_ok c) analyzed

let of_codes analyzed sg =
  make (fun i _ ~discard_ok:_ -> of_code (Char.code (Bytes.get sg i))) analyzed

(* ---------- traversal ---------- *)

let rec fold_node f acc n = List.fold_left (fold_node f) (f acc n) n.sub
let fold f acc p = List.fold_left (fold_node f) acc p.roots
let nodes p = List.rev (fold (fun acc n -> n :: acc) [] p)

let find p id = List.find_opt (fun n -> n.child.A.block.A.id = id) (nodes p)

let rec write_codes sg i = function
  | [] -> i
  | n :: rest ->
      Bytes.unsafe_set sg i (Char.unsafe_chr (code n.impl));
      write_codes sg (write_codes sg (i + 1) n.sub) rest

let signature p =
  let sg = Bytes.create (site_count p.analyzed) in
  ignore (write_codes sg 0 p.roots : int);
  sg

(* ---------- rewriting ---------- *)

let replace p ~id ~impl =
  let sg = signature p in
  List.iteri
    (fun i n ->
      if n.child.A.block.A.id = id then Bytes.set sg i (Char.chr (code impl)))
    (nodes p);
  of_codes p.analyzed sg

(* ---------- rendering ---------- *)

let nest_to_string n = if n.pipelined then "υ-pipelined" else "υ-materialized"

let impl_to_string = function
  | Shared_set -> "shared-set"
  | Push_down -> "push-down"
  | Semijoin -> "semijoin"
  | Bottom_up n -> Printf.sprintf "bottom-up(%s)" (nest_to_string n)
  | Top_down n -> Printf.sprintf "top-down(%s)" (nest_to_string n)
