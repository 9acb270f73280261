open Nra_relational

type t = {
  table : string;
  rows : int;
  cols : (string * Col_stats.t) list;
}

let collect ?buckets table =
  let rel = Table.relation table in
  let work = Col_stats.work () in
  let cols =
    Array.to_list (Schema.columns (Table.schema table))
    |> List.mapi (fun i (c : Schema.column) ->
           (* a transient batch per column: its typed copy is garbage
              once the column's statistics are read, where the table's
              own batch would keep every column forced for good *)
           ( c.Schema.name,
             Col_stats.of_column ?buckets work
               (Batch.column (Batch.of_relation rel) i) ))
  in
  { table = Table.name table; rows = Relation.cardinality rel; cols }

let col t name = List.assoc_opt name t.cols

let pp ppf t =
  Format.fprintf ppf "@[<v>%s: %d rows%a@]" t.table t.rows
    (fun ppf cols ->
      List.iter
        (fun (name, cs) ->
          Format.fprintf ppf "@,  %-20s %a" name Col_stats.pp cs)
        cols)
    t.cols
