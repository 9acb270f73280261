open Nra_relational

type t = {
  name : string;
  relation : Relation.t;
  batch : Batch.t;  (* typed columns over [relation]'s rows *)
  key : int array;
  key_names : string list;
}

let create ~name ~key cols rows =
  if key = [] then
    invalid_arg (Printf.sprintf "table %s: a primary key is required" name);
  let cols =
    List.map
      (fun (c : Schema.column) ->
        let in_key = List.mem c.name key in
        {
          c with
          Schema.table = name;
          is_key = in_key;
          not_null = (c.not_null || in_key);
        })
      cols
  in
  let schema = Schema.of_columns cols in
  let key_positions =
    List.map
      (fun k ->
        match Schema.find_opt schema k with
        | Some i -> i
        | None ->
            invalid_arg
              (Printf.sprintf "table %s: key column %s not in schema" name k))
      key
  in
  let relation = Relation.make schema rows in
  (match Relation.typecheck relation with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "table %s: %s" name msg));
  {
    name;
    relation;
    batch = Batch.of_relation relation;
    key = Array.of_list key_positions;
    key_names = key;
  }

let name t = t.name
let schema t = Relation.schema t.relation
let relation t = t.relation
let batch t = t.batch
let cardinality t = Relation.cardinality t.relation
let key_positions t = t.key
let key_columns t = t.key_names

let with_rows ?fresh t rows =
  let relation = Relation.make (schema t) rows in
  (match Relation.typecheck ?only:fresh relation with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "table %s: %s" t.name msg));
  { t with relation; batch = Batch.of_relation relation }

(* the record copy shares [batch]: an alias never rebuilds columns; a
   table's columns are qualified with its own name, so aliasing it to
   that name is the table itself *)
let alias t a =
  if String.equal a t.name then t
  else
    let s = Schema.rename_table a (schema t) in
    { t with name = a; relation = Relation.rename t.relation s }

let pp ppf t =
  Format.fprintf ppf "table %s %a@.%a" t.name Schema.pp (schema t)
    Relation.pp t.relation
