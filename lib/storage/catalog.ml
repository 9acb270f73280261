open Nra_relational

type indexes = {
  mutable hash : (string list * Hash_index.t) list;
      (* column names (index order) * index *)
  mutable sorted : (string list * Sorted_index.t) list;
}

(* [stats] is the table's last ANALYZE snapshot, derived from its rows
   like an index: a new entry (register, DML) starts without one, and a
   drop removes it with the entry. *)
type entry = {
  table : Table.t;
  idx : indexes;
  gen : int;
  mutable stats : Table_stats.t option;
}

(* [gen] is the catalog-wide version: bumped on every register, DML row
   replacement, drop, index change and ANALYZE.  Consumers that cache whole-query
   derived data (the nra.server plan cache) compare it instead of
   tracking every table they touched.  [wal] is this catalog's
   write-ahead log (see Wal). *)
type t = { tbl : (string, entry) Hashtbl.t; mutable gen : int; wal : Wal_log.t }

let create () = { tbl = Hashtbl.create 16; gen = 0; wal = Wal_log.create () }
let wal t = t.wal

let positions_of table cols =
  let schema = Table.schema table in
  List.map
    (fun c ->
      match Schema.find_opt schema c with
      | Some i -> i
      | None ->
          invalid_arg
            (Printf.sprintf "index on %s: unknown column %s"
               (Table.name table) c))
    cols
  |> Array.of_list

let register t table =
  let name = Table.name table in
  t.gen <- t.gen + 1;
  let idx = { hash = []; sorted = [] } in
  let key_cols = Table.key_columns table in
  idx.hash <-
    [ (key_cols, Hash_index.build (Table.relation table)
                   (Table.key_positions table)) ];
  let gen =
    match Hashtbl.find_opt t.tbl name with Some e -> e.gen + 1 | None -> 0
  in
  Hashtbl.replace t.tbl name { table; idx; gen; stats = None }

(* exposed below, used by DML *)

let entry t name =
  match Hashtbl.find_opt t.tbl name with
  | Some e -> e
  | None -> raise Not_found

(* [pk] is the primary-key index over [table]'s rows: the first row
   whose key repeats an earlier row's is the one reported. *)
let check_key_unique table pk =
  match Hash_index.first_duplicate pk with
  | None -> ()
  | Some id ->
      let row = (Relation.rows (Table.relation table)).(id) in
      invalid_arg
        (Printf.sprintf "table %s: duplicate primary key %s"
           (Table.name table)
           (Format.asprintf "%a" Row.pp
              (Row.project_arr row (Table.key_positions table))))

let update_rows ?fresh t name rows =
  let e = entry t name in
  let table = Table.with_rows ?fresh e.table rows in
  let rel = Table.relation table in
  let pk = Hash_index.build rel (Table.key_positions table) in
  check_key_unique table pk;
  let key_cols = Table.key_columns table in
  let hash =
    List.map
      (fun (cols, _) ->
        ( cols,
          if cols = key_cols then pk
          else Hash_index.build rel (positions_of table cols) ))
      e.idx.hash
  in
  let sorted =
    List.map
      (fun (cols, _) -> (cols, Sorted_index.build rel (positions_of table cols)))
      e.idx.sorted
  in
  t.gen <- t.gen + 1;
  Hashtbl.replace t.tbl name
    { table; idx = { hash; sorted }; gen = e.gen + 1; stats = None }

let drop_table t name =
  if not (Hashtbl.mem t.tbl name) then raise Not_found;
  t.gen <- t.gen + 1;
  Hashtbl.remove t.tbl name

let generation t name =
  match Hashtbl.find_opt t.tbl name with Some e -> e.gen | None -> -1

let global_generation t = t.gen

let analyze ?buckets t name =
  let e = entry t name in
  let ts = Table_stats.collect ?buckets e.table in
  e.stats <- Some ts;
  t.gen <- t.gen + 1;
  ts

let stats t name =
  Option.bind (Hashtbl.find_opt t.tbl name) (fun e -> e.stats)

let table t name = (entry t name).table
let table_opt t name = Option.map (fun e -> e.table) (Hashtbl.find_opt t.tbl name)
let mem t name = Hashtbl.mem t.tbl name

let tables t =
  Hashtbl.fold (fun _ e acc -> e.table :: acc) t.tbl []
  |> List.sort (fun a b -> String.compare (Table.name a) (Table.name b))

(* an index changes the access paths a plan was priced with, so index
   changes bump [gen] like DML does *)
let create_hash_index t ~table:name cols =
  let e = entry t name in
  if not (List.mem_assoc cols e.idx.hash) then begin
    e.idx.hash <-
      (cols, Hash_index.build (Table.relation e.table)
               (positions_of e.table cols))
      :: e.idx.hash;
    t.gen <- t.gen + 1
  end

let create_sorted_index t ~table:name cols =
  let e = entry t name in
  if not (List.mem_assoc cols e.idx.sorted) then begin
    e.idx.sorted <-
      (cols, Sorted_index.build (Table.relation e.table)
               (positions_of e.table cols))
      :: e.idx.sorted;
    t.gen <- t.gen + 1
  end

let same_set a b =
  List.sort String.compare a = List.sort String.compare b

let hash_index t ~table:name cols =
  match Hashtbl.find_opt t.tbl name with
  | None -> None
  | Some e ->
      List.find_opt (fun (ic, _) -> same_set ic cols) e.idx.hash
      |> Option.map snd

let hash_index_covering t ~table:name cols =
  match Hashtbl.find_opt t.tbl name with
  | None -> None
  | Some e ->
      let subset ic = ic <> [] && List.for_all (fun c -> List.mem c cols) ic in
      e.idx.hash
      |> List.filter (fun (ic, _) -> subset ic)
      |> List.sort (fun (a, _) (b, _) ->
             Int.compare (List.length b) (List.length a))
      |> (function
           | [] -> None
           | (ic, i) :: _ -> Some (i, ic))

let sorted_index_on t ~table:name col =
  match Hashtbl.find_opt t.tbl name with
  | None -> None
  | Some e ->
      List.find_opt
        (fun (ic, _) -> match ic with c :: _ -> c = col | [] -> false)
        e.idx.sorted
      |> Option.map snd

let drop_indexes t ~table:name =
  let e = entry t name in
  let key_cols = Table.key_columns e.table in
  let hash = List.filter (fun (ic, _) -> same_set ic key_cols) e.idx.hash in
  if List.compare_lengths hash e.idx.hash <> 0 || e.idx.sorted <> [] then begin
    e.idx.hash <- hash;
    e.idx.sorted <- [];
    t.gen <- t.gen + 1
  end

let pp ppf t =
  let ts = tables t in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list (fun ppf tb ->
         Format.fprintf ppf "%s (%d rows) %a" (Table.name tb)
           (Table.cardinality tb) Schema.pp (Table.schema tb)))
    ts
