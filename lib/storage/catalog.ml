open Nra_relational

(* An index is recorded by its columns and built the first time it is
   read ({!force}): a write installs its entry with every index unbuilt,
   so a write pays for no index it does not read.  [rel] is the entry's
   relation the arrays index. *)
type 'i index = {
  columns : string list; (* index order *)
  positions : int array;
  rel : Relation.t;
  build : Relation.t -> int array -> 'i;
  mutable built : 'i option;
}

type indexes = {
  mutable hash : Hash_index.t index list;
  mutable sorted : Sorted_index.t index list;
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

let index build table columns =
  { columns; positions = positions_of table columns;
    rel = Table.relation table; build; built = None }

(* the same index over [table]'s rows, unbuilt *)
let reindex table ix = { ix with rel = Table.relation table; built = None }

(* Built on the calling domain, with no guard checkpoint inside the
   build, so no other fiber can see the slot half filled. *)
let force ix =
  match ix.built with
  | Some i -> i
  | None ->
      let i = ix.build ix.rel ix.positions in
      ix.built <- Some i;
      i

let columns ix = ix.columns

let register t table =
  let name = Table.name table in
  t.gen <- t.gen + 1;
  let idx =
    { hash = [ index Hash_index.build table (Table.key_columns table) ];
      sorted = [] }
  in
  let gen =
    match Hashtbl.find_opt t.tbl name with Some e -> e.gen + 1 | None -> 0
  in
  Hashtbl.replace t.tbl name { table; idx; gen; stats = None }

(* exposed below, used by DML *)

let entry t name =
  match Hashtbl.find_opt t.tbl name with
  | Some e -> e
  | None -> raise Not_found

(* Key uniqueness over the rows a write introduces ([fresh], every row
   when absent).  The other rows held distinct keys before the write,
   so any repeat involves a fresh row: the fresh rows are chained by key
   in borrowed buffers, and each other row probes them once.  The row
   reported is the least id whose key a smaller id holds, as a scan of
   the whole table reports: for one key, the second least of its ids. *)
let check_keys ?fresh table =
  let rows = Relation.rows (Table.relation table) in
  let pos = Table.key_positions table in
  let m = match fresh with Some f -> Array.length f | None -> Array.length rows in
  let id j = match fresh with Some f -> f.(j) | None -> j in
  let dup =
    if m = 0 then max_int
    else
      Keyed.with_scratch ~nulls:`Skip
        ?sel:(Option.map (fun f -> (f, m)) fresh)
        ~pos rows
      @@ fun keyed ->
      (* the least fresh row keyed like an earlier fresh row *)
      let dup = ref max_int and j = ref 0 in
      while !dup = max_int && !j < m do
        let f = Keyed.first_entry keyed !j in
        if f >= 0 && f < !j then dup := id !j;
        incr j
      done;
      (* an other row [i] keyed like the fresh row [a]: the later one
         repeats the earlier *)
      (match fresh with
      | None -> ()
      | Some f ->
          let p = ref 0 in
          for i = 0 to Array.length rows - 1 do
            if !p < m && f.(!p) = i then incr p
            else
              let e = Keyed.first keyed pos rows.(i) in
              if e >= 0 then dup := min !dup (max i f.(e))
          done);
      !dup
  in
  if dup < max_int then
    invalid_arg
      (Printf.sprintf "table %s: duplicate primary key %s" (Table.name table)
         (Format.asprintf "%a" Row.pp (Row.project_arr rows.(dup) pos)))

let update_rows ?fresh t name rows =
  let e = entry t name in
  let table = Table.with_rows ?fresh e.table rows in
  check_keys ?fresh table;
  let idx =
    { hash = List.map (reindex table) e.idx.hash;
      sorted = List.map (reindex table) e.idx.sorted }
  in
  t.gen <- t.gen + 1;
  Hashtbl.replace t.tbl name { table; idx; gen = e.gen + 1; stats = None }

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
  match Hashtbl.find t.tbl name with
  | e -> e.stats
  | exception Not_found -> None

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
  if not (List.exists (fun ix -> ix.columns = cols) e.idx.hash) then begin
    e.idx.hash <- index Hash_index.build e.table cols :: e.idx.hash;
    t.gen <- t.gen + 1
  end

let create_sorted_index t ~table:name cols =
  let e = entry t name in
  if not (List.exists (fun ix -> ix.columns = cols) e.idx.sorted) then begin
    e.idx.sorted <- index Sorted_index.build e.table cols :: e.idx.sorted;
    t.gen <- t.gen + 1
  end

(* [a] and [b] hold the same columns, as multisets: the lists are a
   few columns long, so counting beats sorting copies of them *)
let rec count c n = function
  | [] -> n
  | x :: rest -> count c (if String.equal x c then n + 1 else n) rest

let same_set a b =
  List.compare_lengths a b = 0
  && List.for_all (fun c -> count c 0 a = count c 0 b) a

let indexes t name =
  match Hashtbl.find t.tbl name with
  | e -> Some e.idx
  | exception Not_found -> None

let hash_index t ~table:name cols =
  Option.bind (indexes t name) (fun idx ->
      List.find_opt (fun ix -> same_set ix.columns cols) idx.hash)

(* the first of the longest non-empty indexes whose columns all lie in
   [cols] *)
let rec covering cols best = function
  | [] -> best
  | ix :: rest ->
      let longer =
        match best with
        | None -> true
        | Some b -> List.compare_lengths ix.columns b.columns > 0
      in
      if
        longer && ix.columns <> []
        && List.for_all (fun c -> List.mem c cols) ix.columns
      then covering cols (Some ix) rest
      else covering cols best rest

let hash_index_covering t ~table:name cols =
  match Hashtbl.find t.tbl name with
  | e -> covering cols None e.idx.hash
  | exception Not_found -> None

let rec sorted_on col = function
  | [] -> None
  | ix :: rest -> (
      match ix.columns with
      | c :: _ when String.equal c col -> Some ix
      | _ -> sorted_on col rest)

let sorted_index_on t ~table:name col =
  match Hashtbl.find t.tbl name with
  | e -> sorted_on col e.idx.sorted
  | exception Not_found -> None

let drop_indexes t ~table:name =
  let e = entry t name in
  let key_cols = Table.key_columns e.table in
  let hash = List.filter (fun ix -> same_set ix.columns key_cols) e.idx.hash in
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
