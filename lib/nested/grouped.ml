open Nra_relational
module T3 = Three_valued
module Pool = Nra_pool.Pool

type t = {
  key_schema : Schema.t;
  elem_schema : Schema.t;
  groups : (Row.t * Row.t array) array;
}

let schemas rel ~by ~keep =
  let s = Relation.schema rel in
  ( Schema.project s (Array.to_list by),
    Schema.project s (Array.to_list keep) )

let nest_sort ~by ~keep rel =
  let key_schema, elem_schema = schemas rel ~by ~keep in
  let sorted = Relation.sort_by by rel in
  let rows = Relation.rows sorted in
  let n = Array.length rows in
  let groups = ref [] in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    let key = Row.project_arr rows.(start) by in
    let elems = ref [] in
    while !i < n && Row.equal_on by rows.(start) rows.(!i) do
      elems := Row.project_arr rows.(!i) keep :: !elems;
      incr i
    done;
    groups := (key, Array.of_list (List.rev !elems)) :: !groups
  done;
  { key_schema; elem_schema; groups = Array.of_list (List.rev !groups) }

(* Accumulate [(key, elems)] groups from a stream of projected rows,
   keyed by the whole key row (Row.Tbl replaces the old find_all +
   List.find_opt linear bucket scan); [order] keeps first-seen key
   order tagged with the first row's index, so partitioned runs can
   splice back into the exact serial order. *)
let nest_into tbl order idx key elem =
  match Row.Tbl.find_opt tbl key with
  | Some cell -> cell := elem :: !cell
  | None ->
      let cell = ref [ elem ] in
      Row.Tbl.add tbl key cell;
      order := (idx, key, cell) :: !order

let finish_groups order =
  List.rev_map
    (fun (idx, key, cell) -> (idx, (key, Array.of_list (List.rev !cell))))
    !order

let nest_hash_serial ~by ~keep rows =
  let tbl : Row.t list ref Row.Tbl.t = Row.Tbl.create 64 in
  let order = ref [] in
  Array.iteri
    (fun i row ->
      nest_into tbl order i (Row.project_arr row by) (Row.project_arr row keep))
    rows;
  Array.of_list (List.map snd (finish_groups order))

(* Columnar serial variant: group keys hash column-at-a-time into a
   precomputed vector ([Batch.hash_on] equals [Row.hash] of the
   projected key exactly), so the table is keyed by the unboxed hash
   with a [Row.equal] scan of the (almost always singleton) bucket —
   same groups, same first-seen order as [nest_hash_serial]. *)
let nest_hash_serial_vec ~by ~keep rows khash =
  let tbl : (int, (Row.t * Row.t list ref) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  Array.iteri
    (fun i row ->
      let key = Row.project_arr row by in
      let elem = Row.project_arr row keep in
      let h = khash.(i) land max_int in
      match Hashtbl.find_opt tbl h with
      | Some bucket -> (
          match List.find_opt (fun (k, _) -> Row.equal k key) !bucket with
          | Some (_, cell) -> cell := elem :: !cell
          | None ->
              let cell = ref [ elem ] in
              bucket := (key, cell) :: !bucket;
              order := (i, key, cell) :: !order)
      | None ->
          let cell = ref [ elem ] in
          Hashtbl.add tbl h (ref [ (key, cell) ]);
          order := (i, key, cell) :: !order)
    rows;
  Array.of_list (List.map snd (finish_groups order))

(* Parallel variant: project keys/elems over row morsels, partition row
   indices by key hash — every occurrence of a key lands in one
   partition, in row order — nest the partitions in parallel, then
   sort the union of groups by each group's first-seen row index.
   That index order is exactly the serial first-seen key order, so the
   result is bit-identical to [nest_hash_serial]. *)
let nest_hash_parallel ~by ~keep ~khash rows =
  let n = Array.length rows in
  let nparts = Pool.executors () in
  let keys = Array.make n [||] in
  let elems = Array.make n [||] in
  ignore
    (Pool.parallel_chunks ~n (fun _ledger ~lo ~hi ->
         for i = lo to hi - 1 do
           keys.(i) <- Row.project_arr rows.(i) by;
           elems.(i) <- Row.project_arr rows.(i) keep
         done));
  let key_hash i =
    match khash with Some v -> Array.unsafe_get v i | None -> Row.hash keys.(i)
  in
  let parts = Array.make nparts [] in
  for i = n - 1 downto 0 do
    let p = key_hash i land max_int mod nparts in
    parts.(p) <- i :: parts.(p)
  done;
  let part_idx = Array.map Array.of_list parts in
  let per_part =
    Pool.parallel_chunks ~min_chunk:1 ~n:nparts (fun _ledger ~lo ~hi ->
        let acc = ref [] in
        for k = lo to hi - 1 do
          let tbl : Row.t list ref Row.Tbl.t = Row.Tbl.create 64 in
          let order = ref [] in
          Array.iter
            (fun i -> nest_into tbl order i keys.(i) elems.(i))
            part_idx.(k);
          acc := List.rev_append (List.rev (finish_groups order)) !acc
        done;
        List.rev !acc)
  in
  let all = Array.of_list (List.concat (Array.to_list per_part)) in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) all;
  Array.map snd all

(* Spillable variant: when the input exceeds the buffer pool's frame
   budget, partition the rows by key hash into buckets sized to fit the
   budget.  Bucket 0 nests in memory as rows arrive (hybrid); the
   others spill their row positions through Bufpool.Spill — charged
   page writes, charged page re-reads when each partition nests on its
   own, projecting key and element only then — and the positions
   double as first-seen indices, so the final first-index sort
   restores the exact serial first-seen key order.
   Bit-identical to [nest_hash_serial] by the same argument as
   [nest_hash_parallel]: every occurrence of a key lands in one
   partition, in row order. *)
let nest_hash_spill ~by ~keep ~frames ~khash rows =
  let module B = Nra_storage.Bufpool in
  let n = Array.length rows in
  let budget = max 1 (frames - 1) in
  let input_pages = Nra_storage.Iosim.pages n in
  let nparts = min 64 (max 2 ((input_pages + budget - 1) / budget)) in
  let tbl0 : Row.t list ref Row.Tbl.t = Row.Tbl.create 64 in
  let order0 = ref [] in
  let spills =
    Array.init (nparts - 1) (fun p -> B.Spill.create (Printf.sprintf "ns%d" p))
  in
  Fun.protect ~finally:(fun () -> Array.iter B.Spill.free spills) @@ fun () ->
  let nest_row tbl order i =
    nest_into tbl order i
      (Row.project_arr rows.(i) by)
      (Row.project_arr rows.(i) keep)
  in
  Array.iteri
    (fun i row ->
      (* [Row.hash_on by] is [Row.hash] of the projected key *)
      let h =
        match khash with
        | Some v -> Array.unsafe_get v i
        | None -> Row.hash_on by row
      in
      let p = h land max_int mod nparts in
      if p = 0 then nest_row tbl0 order0 i else B.Spill.add spills.(p - 1) i)
    rows;
  Array.iter B.Spill.finish spills;
  (* spilled partitions nest under the Domain pool, one chunk per
     partition: workers read spill data with [iter_raw] (no pool
     traffic) and hand the consumed partitions to their ledger; the
     owner replays page reads and frees them at the join barrier in
     partition order.  Group order is restored by the final
     first-index sort, so partition results can arrive in any order. *)
  let per_part =
    if nparts > 1 then
      Pool.parallel_chunks ~min_chunk:1
        ~n:(nparts - 1)
        (fun ledger ~lo ~hi ->
          let acc = ref [] in
          for k = lo to hi - 1 do
            Pool.Ledger.tick ledger;
            let sp = spills.(k) in
            let tbl : Row.t list ref Row.Tbl.t = Row.Tbl.create 64 in
            let order = ref [] in
            B.Spill.iter_raw sp (nest_row tbl order);
            acc := List.rev_append (finish_groups order) !acc;
            Pool.Ledger.consumed_spill ledger sp
          done;
          !acc)
    else [||]
  in
  let all =
    Array.fold_left
      (fun acc part -> List.rev_append part acc)
      (List.rev (finish_groups order0))
      per_part
  in
  let arr = Array.of_list all in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) arr;
  Array.map snd arr

let nest_hash ~by ~keep rel =
  let key_schema, elem_schema = schemas rel ~by ~keep in
  let rows = Relation.rows rel in
  (* columnar group-key hashes, computed owner-side; identical values
     to the row path's [Row.hash], so partition layout, spill page
     counts and group order are unchanged *)
  let khash =
    (* cached batches only: nesting usually runs over a joined
       intermediate, where building a transient batch of the group-key
       columns would cost more than inline row hashing *)
    if Batch.enabled () && not (Relation.is_empty rel) then
      match Batch.find rel with
      | Some b -> Some (fst (Batch.hash_on b by))
      | None -> None
    else None
  in
  let groups =
    match Nra_storage.Bufpool.frames () with
    | Some f when Nra_storage.Iosim.pages (Array.length rows) > f ->
        (* the spill path runs its partitions under the Domain pool
           itself (iter_raw workers + owner-side ledger replay), so
           out-of-core and parallel compose *)
        nest_hash_spill ~by ~keep ~frames:f ~khash rows
    | _ ->
        if Pool.use_parallel (Array.length rows) then
          nest_hash_parallel ~by ~keep ~khash rows
        else (
          match khash with
          | Some v -> nest_hash_serial_vec ~by ~keep rows v
          | None -> nest_hash_serial ~by ~keep rows)
  in
  { key_schema; elem_schema; groups }

let cardinality t = Array.length t.groups

let unnest t =
  let schema = Schema.append t.key_schema t.elem_schema in
  let out = ref [] in
  Array.iter
    (fun (key, elems) ->
      Array.iter (fun e -> out := Row.concat key e :: !out) elems)
    t.groups;
  Relation.of_rows schema (List.rev !out)

let to_nested t =
  let flat = unnest t in
  let karity = Schema.arity t.key_schema in
  let earity = Schema.arity t.elem_schema in
  Nested_relation.nest
    ~by:(List.init karity Fun.id)
    ~keep:(List.init earity (fun i -> karity + i))
    (Nested_relation.of_flat flat)

let equal a b =
  let canon t =
    Array.to_list t.groups
    |> List.map (fun (k, es) ->
           (k, List.sort Row.compare (Array.to_list es)))
    |> List.sort (fun (k1, _) (k2, _) -> Row.compare k1 k2)
  in
  List.equal
    (fun (k1, e1) (k2, e2) -> Row.equal k1 k2 && List.equal Row.equal e1 e2)
    (canon a) (canon b)

(* one fold per selection, restarted per group *)
let eval_group f ~marker (key, elems) =
  Link_pred.start f ~outer:key;
  Array.iter (Link_pred.step_elem f ~marker) elems;
  Link_pred.finish f

let select pred ~marker t =
  let f = Link_pred.fold pred in
  let out = ref [] in
  Array.iter
    (fun g ->
      if T3.to_bool (eval_group f ~marker g) then out := fst g :: !out)
    t.groups;
  Relation.of_rows t.key_schema (List.rev !out)

let pseudo_select pred ~marker ~pad t =
  let f = Link_pred.fold pred in
  let out = ref [] in
  Array.iter
    (fun ((key, _) as g) ->
      let row =
        if T3.to_bool (eval_group f ~marker g) then key
        else begin
          let padded = Array.copy key in
          Array.iter (fun i -> padded.(i) <- Value.Null) pad;
          padded
        end
      in
      out := row :: !out)
    t.groups;
  Relation.of_rows t.key_schema (List.rev !out)

let pp ppf t =
  Format.fprintf ppf "@[<v>nest %a keeping %a@,%a@]" Schema.pp t.key_schema
    Schema.pp t.elem_schema
    (Format.pp_print_list (fun ppf (k, es) ->
         Format.fprintf ppf "%a -> {%a}" Row.pp k
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
              Row.pp)
           (Array.to_list es)))
    (Array.to_list t.groups)
