open Nra_relational
open Nra_planner
module A = Analyze
module T3 = Three_valued

let magic_applicable (c : A.child) =
  let b = c.A.block in
  b.A.self_contained && b.A.equi_correlation <> None

(* Decide the children of block [p] over relation [rel] (whose schema is
   [p]'s frame).  Failing rows are discarded: this executor evaluates
   strictly bottom-up, so at every level "the qualifying rows of the
   block" is exactly the set the enclosing level needs. *)
let rec apply_children cat t rel (p : A.block) =
  List.fold_left (fun rel c -> apply_child cat t rel c) rel p.A.children

and apply_child cat t rel (c : A.child) =
  let b = c.A.block in
  let key_schema = Relation.schema rel in
  match (magic_applicable c, b.A.equi_correlation) with
  | true, Some pairs ->
      let probe = Linkeval.outer_keys key_schema pairs in
      (* 1. the magic set: the outer rows by correlation key; 2.
         restrict the inner block to its keys, then reduce the inner
         block's own subqueries on the restricted relation *)
      let cschema, keys, restricted =
        Linkeval.with_magic_set ~probe (Relation.rows rel) @@ fun magic ->
        let child_rel = Frame.block_relation b in
        let cschema = Relation.schema child_rel in
        let keys = Linkeval.inner_keys cschema pairs in
        (cschema, keys, Linkeval.restrict magic ~keys child_rel)
      in
      let reduced = apply_children cat t restricted b in
      (* 3. chain by the correlation key and decide per outer tuple *)
      let lk =
        Linkeval.compile ~key_schema ~wide_schema:cschema ~with_marker:false
          c
      in
      Linkeval.with_group lk ~keys ~probe ~tick:true (Relation.rows reduced)
      @@ fun groups ->
      Relation.filter
        (fun row ->
          Nra_guard.Guard.tick ();
          T3.to_bool (Linkeval.decide groups row))
        rel
  | _ ->
      (* no equality correlation (or an escaping reference): nested
         iteration, as the technique's relational formulations do *)
      let k = Naive.compile cat t key_schema c in
      Relation.filter (fun row -> T3.to_bool (k row)) rel

let run_where cat (t : A.t) =
  apply_children cat t (Frame.block_relation t.A.root) t.A.root

let run cat t = Post.apply t.A.output (run_where cat t)

let magic_set_sizes _cat (t : A.t) =
  let acc = ref [] in
  let rec go rel (p : A.block) =
    List.iter
      (fun (c : A.child) ->
        let b = c.A.block in
        match (magic_applicable c, b.A.equi_correlation) with
        | true, Some pairs ->
            let key_schema = Relation.schema rel in
            let outer_keys =
              Array.of_list
                (List.map (fun (_, e) -> Frame.to_scalar key_schema e) pairs)
            in
            let keys =
              Array.map
                (fun row -> Array.map (Expr.eval_scalar row) outer_keys)
                (Relation.rows rel)
            in
            let pos = Array.init (Array.length outer_keys) Fun.id in
            let size =
              Keyed.with_scratch ~nulls:`Skip ~pos keys Keyed.distinct
            in
            acc := (b.A.id, size) :: !acc;
            go (Frame.block_relation ~charge:false b) b
        | _ -> ())
      p.A.children
  in
  go (Frame.block_relation ~charge:false t.A.root) t.A.root;
  List.rev !acc
