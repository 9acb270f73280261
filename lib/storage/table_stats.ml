open Nra_relational

type t = {
  table : string;
  rows : int;
  cols : (string * Col_stats.t) list;
}

let collect ?buckets table =
  let rel = Table.relation table in
  let rows = Relation.rows rel in
  let schema = Table.schema table in
  let cols =
    Array.to_list (Schema.columns schema)
    |> List.mapi (fun i (c : Schema.column) ->
           let values = Array.map (fun row -> row.(i)) rows in
           (c.Schema.name, Col_stats.collect ?buckets values))
  in
  { table = Table.name table; rows = Array.length rows; cols }

let col t name = List.assoc_opt name t.cols

let pp ppf t =
  Format.fprintf ppf "@[<v>%s: %d rows%a@]" t.table t.rows
    (fun ppf cols ->
      List.iter
        (fun (name, cs) ->
          Format.fprintf ppf "@,  %-20s %a" name Col_stats.pp cs)
        cols)
    t.cols
