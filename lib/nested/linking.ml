open Nra_relational
module T3 = Three_valued
module N = Nested_relation

let eval_tuple pred ~sub ~marker (tp : N.tuple) =
  let f = Link_pred.fold pred in
  Link_pred.start f ~outer:tp.avals;
  List.iter
    (fun (e : N.tuple) -> Link_pred.step_elem f ~marker e.avals)
    tp.svals.(sub).tuples;
  Link_pred.finish f

let select pred ~sub ~marker (t : N.t) =
  {
    t with
    N.tuples =
      List.filter
        (fun tp -> T3.to_bool (eval_tuple pred ~sub ~marker tp))
        t.tuples;
  }

let pseudo_select pred ~sub ~marker ~pad (t : N.t) =
  let pad_tuple (tp : N.tuple) =
    let avals = Array.copy tp.avals in
    List.iter (fun i -> avals.(i) <- Value.Null) pad;
    { tp with N.avals }
  in
  {
    t with
    N.tuples =
      List.map
        (fun tp ->
          if T3.to_bool (eval_tuple pred ~sub ~marker tp) then tp
          else pad_tuple tp)
        t.tuples;
  }

let rec at_depth ~path f (t : N.t) =
  match path with
  | [] -> f t
  | sub :: rest ->
      if sub < 0 || sub >= Array.length t.N.sch.N.subs then
        invalid_arg "Linking.at_depth: no such subrelation";
      let name, sub_schema = t.N.sch.N.subs.(sub) in
      (* the subschema may change shape uniformly; recompute it from the
         first rewritten subrelation if any, else keep the original *)
      let new_schema = ref sub_schema in
      let tuples =
        List.map
          (fun (tp : N.tuple) ->
            let rewritten = at_depth ~path:rest f tp.N.svals.(sub) in
            new_schema := rewritten.N.sch;
            let svals = Array.copy tp.N.svals in
            svals.(sub) <- rewritten;
            { tp with N.svals })
          t.N.tuples
      in
      let subs = Array.copy t.N.sch.N.subs in
      subs.(sub) <- (name, !new_schema);
      { N.sch = { t.N.sch with N.subs }; tuples }

let pseudo_select_at ~path pred ~sub ~marker ~pad t =
  at_depth ~path (pseudo_select pred ~sub ~marker ~pad) t

let drop_sub ~sub (t : N.t) =
  let drop_i l = List.filteri (fun i _ -> i <> sub) l in
  {
    N.sch =
      {
        t.N.sch with
        N.subs = Array.of_list (drop_i (Array.to_list t.N.sch.N.subs));
      };
    N.tuples =
      List.map
        (fun (tp : N.tuple) ->
          {
            tp with
            N.svals = Array.of_list (drop_i (Array.to_list tp.N.svals));
          })
        t.N.tuples;
  }
