open Nra_relational
module Pool = Nra_pool.Pool

type kind = Inner | Left_outer | Semi | Anti

let stats_probes = ref 0

let out_schema kind left right =
  match kind with
  | Inner | Left_outer ->
      Schema.append (Relation.schema left) (Relation.schema right)
  | Semi | Anti -> Relation.schema left

(* Emit output rows for one left row given its matching right rows. *)
let emit kind ~right_arity lrow matches acc =
  match kind with
  | Inner -> List.fold_left (fun a r -> Row.concat lrow r :: a) acc matches
  | Left_outer -> (
      match matches with
      | [] -> Row.concat lrow (Row.nulls right_arity) :: acc
      | ms -> List.fold_left (fun a r -> Row.concat lrow r :: a) acc ms)
  | Semi -> if matches <> [] then lrow :: acc else acc
  | Anti -> if matches = [] then lrow :: acc else acc

(* Every variant below computes one thing, the probe primitive: per
   left row (by position), its matching right rows in build order.
   [join] is [emit] over those lists in left order, so no variant has a
   second probe path, and a consumer that groups matches itself (the
   NRA executor's fused nest) reads the same lists. *)
let emit_all kind left right matches =
  let right_arity = Schema.arity (Relation.schema right) in
  let acc = ref [] in
  Array.iteri
    (fun i lrow -> acc := emit kind ~right_arity lrow matches.(i) !acc)
    (Relation.rows left);
  Relation.of_rows (out_schema kind left right) (List.rev !acc)

(* a trivially-true residual (the Cartesian fallback in join-nest
   fusion, or an equi-only join) needs no per-pair concat to test it *)
let trivially_true = function
  | Expr.Lit3 Three_valued.True -> true
  | _ -> false

(* ---------- nested loop (no equi-conjunct) ---------- *)

let nested_loop_matches ~on left_rows right_rows =
  (* hoisted: one list conversion for the whole join, not one per left
     row *)
  let right_list = Array.to_list right_rows in
  let all_match = trivially_true on in
  let matches_of lrow =
    if all_match then right_list
    else
      List.filter (fun rrow -> Expr.holds on (Row.concat lrow rrow)) right_list
  in
  let n = Array.length left_rows in
  let matches = Array.make n [] in
  if Pool.use_parallel n then
    (* each morsel writes its own slots of [matches] *)
    ignore
      (Pool.parallel_chunks ~n (fun ledger ~lo ~hi ->
           for i = lo to hi - 1 do
             Pool.Ledger.tick ledger;
             matches.(i) <- matches_of left_rows.(i)
           done))
  else
    Array.iteri
      (fun i lrow ->
        Nra_guard.Guard.tick ();
        matches.(i) <- matches_of lrow)
      left_rows;
  matches

let nested_loop kind ~on left right =
  emit_all kind left right
    (nested_loop_matches ~on (Relation.rows left) (Relation.rows right))

(* ---------- hash join ---------- *)

(* Key-hash vectors: per-row [Row.hash_on] plus a has-null-key bitmap,
   computed column-at-a-time over unboxed cells when the columnar core
   is on ([Batch.hash_on] produces bit-identical hashes, so partition
   assignment, build order and probe results are unchanged).  [None]
   falls back to hashing boxed rows inline, exactly the pre-columnar
   code.  Vectors are computed owner-side; workers only index into the
   resulting plain arrays. *)
(* Only a *cached* batch (primed at scan time for a base relation)
   qualifies: for an unprimed intermediate, building a transient batch
   of the key columns just to hash them costs more than hashing the
   boxed rows inline, so those sides keep the row path. *)
let key_vectors rel idxs =
  if Batch.enabled () && not (Relation.is_empty rel) then
    match Batch.find rel with
    | Some b -> Some (Batch.hash_on b idxs)
    | None -> None
  else None

let vec_null vecs idxs row i =
  match vecs with
  | Some (_, nulls) -> Batch.Bitset.get nulls i
  | None -> Row.has_null_on idxs row

let vec_hash vecs idxs row i =
  match vecs with
  | Some (h, _) -> Array.unsafe_get h i
  | None -> Row.hash_on idxs row

let rec keys_equal lpos rpos lrow rrow i =
  i >= Array.length lpos
  || Value.equal lrow.(lpos.(i)) rrow.(rpos.(i))
     && keys_equal lpos rpos lrow rrow (i + 1)

(* The shared probe step: the same expression in the serial, parallel
   and grace paths, so their match lists are identical by construction.
   The key hash is the caller's — precomputed columnar vector entry or
   an inline [Row.hash_on].  [find_all] lists the bucket newest first,
   so consing the survivors in that order yields them in build order. *)
let probe_one tbl ~h ~lpos ~rpos ~residual_pred lrow =
  let all_match = trivially_true residual_pred in
  List.fold_left
    (fun acc rrow ->
      if
        keys_equal lpos rpos lrow rrow 0
        && (all_match || Expr.holds residual_pred (Row.concat lrow rrow))
      then rrow :: acc
      else acc)
    [] (Hashtbl.find_all tbl h)

let hash_serial ~lpos ~rpos ~residual_pred ~lvecs ~rvecs left_rows right_rows
    =
  let tbl = Hashtbl.create (max 16 (Array.length right_rows)) in
  Array.iteri
    (fun i rrow ->
      if not (vec_null rvecs rpos rrow i) then
        Hashtbl.add tbl (vec_hash rvecs rpos rrow i) rrow)
    right_rows;
  let matches = Array.make (Array.length left_rows) [] in
  Array.iteri
    (fun i lrow ->
      Nra_guard.Guard.tick ();
      incr stats_probes;
      if not (vec_null lvecs lpos lrow i) then
        matches.(i) <-
          probe_one tbl
            ~h:(vec_hash lvecs lpos lrow i)
            ~lpos ~rpos ~residual_pred lrow)
    left_rows;
  matches

(* Parallel variant: radix-partition the build side by key hash (each
   key's rows land in exactly one partition, in build order), build the
   partition tables in parallel, then probe left-side morsels in
   parallel — each morsel fills its own slots of the match array, so
   the result is bit-identical to [hash_serial].  Workers run only pure
   row/predicate code; checkpoints accrue to the morsel's ledger and are
   charged at the barrier (the guard contract in docs/PERF.md). *)
let hash_parallel ~lpos ~rpos ~residual_pred ~lvecs ~rvecs left_rows
    right_rows =
  let nparts = Pool.executors () in
  let nright = Array.length right_rows in
  let rhash = Array.make nright 0 in
  let parts = Array.make nparts [] in
  (* reverse iteration so each partition's index list is in build order *)
  for i = nright - 1 downto 0 do
    if not (vec_null rvecs rpos right_rows.(i) i) then begin
      let h = vec_hash rvecs rpos right_rows.(i) i in
      rhash.(i) <- h;
      let p = h land max_int mod nparts in
      parts.(p) <- i :: parts.(p)
    end
  done;
  let part_idx = Array.map Array.of_list parts in
  let tables =
    Pool.parallel_chunks ~min_chunk:1 ~n:nparts (fun _ledger ~lo ~hi ->
        Array.init (hi - lo) (fun k ->
            let ids = part_idx.(lo + k) in
            let tbl = Hashtbl.create (max 16 (Array.length ids)) in
            Array.iter (fun i -> Hashtbl.add tbl rhash.(i) right_rows.(i)) ids;
            tbl))
    |> Array.to_list |> Array.concat
  in
  let matches = Array.make (Array.length left_rows) [] in
  ignore
    (Pool.parallel_chunks ~n:(Array.length left_rows) (fun ledger ~lo ~hi ->
         for i = lo to hi - 1 do
           let lrow = left_rows.(i) in
           Pool.Ledger.tick ledger;
           if not (vec_null lvecs lpos lrow i) then begin
             let h = vec_hash lvecs lpos lrow i in
             matches.(i) <-
               probe_one
                 tables.(h land max_int mod nparts)
                 ~h ~lpos ~rpos ~residual_pred lrow
           end
         done));
  stats_probes := !stats_probes + Array.length left_rows;
  matches

(* Grace/hybrid variant: when the build side exceeds the buffer pool's
   frame budget, partition both inputs by key hash into [nparts]
   buckets sized so one bucket's build table fits the budget.  Bucket 0
   is kept in memory and probed on the fly during the left pass (the
   "hybrid" refinement); the others spill through Bufpool.Spill —
   charged page writes under the budget, charged page reads when each
   partition is processed build-then-probe.

   Bit-identical to [hash_serial] by the same argument as
   [hash_parallel]: every row with key hash [h] lands in partition
   [h mod nparts], spills preserve arrival order so each partition
   table is built in build order, and [probe_one] against the
   partition table sees exactly the rows the global table's
   [find_all h] would return.  A partition holds row positions, not
   rows: it is rebuilt from [right_rows] and probed with [left_rows],
   hashing through the same key vectors as the build pass, and the
   matches land in the per-row array at the spilled left position. *)
let hash_grace ~lpos ~rpos ~residual_pred ~frames ~lvecs ~rvecs left_rows
    right_rows =
  let module B = Nra_storage.Bufpool in
  let build_pages = Nra_storage.Iosim.pages (Array.length right_rows) in
  let budget = max 1 (frames - 1) in
  let nparts = min 64 (max 2 ((build_pages + budget - 1) / budget)) in
  let tbl0 = Hashtbl.create 1024 in
  let rspills =
    Array.init (nparts - 1) (fun p -> B.Spill.create (Printf.sprintf "jr%d" p))
  in
  let lspills =
    Array.init (nparts - 1) (fun p -> B.Spill.create (Printf.sprintf "jl%d" p))
  in
  let free_all () =
    Array.iter B.Spill.free rspills;
    Array.iter B.Spill.free lspills
  in
  Fun.protect ~finally:free_all @@ fun () ->
  (* build pass: partition the right side *)
  Array.iteri
    (fun i rrow ->
      Nra_guard.Guard.tick ();
      if not (vec_null rvecs rpos rrow i) then begin
        let h = vec_hash rvecs rpos rrow i in
        let p = h land max_int mod nparts in
        if p = 0 then Hashtbl.add tbl0 h rrow
        else B.Spill.add rspills.(p - 1) i
      end)
    right_rows;
  Array.iter B.Spill.finish rspills;
  (* probe pass: partition 0 resolved immediately, the rest deferred *)
  let n = Array.length left_rows in
  let matches = Array.make n [] in
  Array.iteri
    (fun i lrow ->
      Nra_guard.Guard.tick ();
      if not (vec_null lvecs lpos lrow i) then begin
        let h = vec_hash lvecs lpos lrow i in
        let p = h land max_int mod nparts in
        if p = 0 then
          matches.(i) <- probe_one tbl0 ~h ~lpos ~rpos ~residual_pred lrow
        else B.Spill.add lspills.(p - 1) i
      end)
    left_rows;
  Array.iter B.Spill.finish lspills;
  (* spilled partitions run under the Domain pool, one chunk per
     partition: workers walk spill data with [iter_raw] (pure heap
     reads — the pool stays owner-side state) and record the consumed
     partitions in their ledger; the owner replays each partition's
     page reads and frees it at the join barrier, in partition order,
     so charges and fault draws are identical at every pool size.
     [matches] writes are race-free: each left row lives in exactly
     one partition, and one partition belongs to exactly one chunk. *)
  if nparts > 1 then
    ignore
      (Pool.parallel_chunks ~min_chunk:1
         ~n:(nparts - 1)
         (fun ledger ~lo ~hi ->
           for k = lo to hi - 1 do
             Pool.Ledger.tick ledger;
             let rsp = rspills.(k) in
             let tbl = Hashtbl.create (max 16 (B.Spill.length rsp)) in
             B.Spill.iter_raw rsp (fun j ->
                 let rrow = right_rows.(j) in
                 Hashtbl.add tbl (vec_hash rvecs rpos rrow j) rrow);
             B.Spill.iter_raw lspills.(k) (fun i ->
                 Pool.Ledger.tick ledger;
                 let lrow = left_rows.(i) in
                 matches.(i) <-
                   probe_one tbl
                     ~h:(vec_hash lvecs lpos lrow i)
                     ~lpos ~rpos ~residual_pred lrow);
             Pool.Ledger.consumed_spill ledger rsp;
             Pool.Ledger.consumed_spill ledger lspills.(k)
           done));
  stats_probes := !stats_probes + n;
  matches

let matches ~on left right =
  let left_arity = Schema.arity (Relation.schema left) in
  let equi, residual = Expr.split_equi ~left_arity on in
  let left_rows = Relation.rows left in
  let right_rows = Relation.rows right in
  if equi = [] then nested_loop_matches ~on left_rows right_rows
  else begin
    let lpos = Array.of_list (List.map fst equi) in
    let rpos = Array.of_list (List.map snd equi) in
    let residual_pred = Expr.conj residual in
    let lvecs = key_vectors left lpos and rvecs = key_vectors right rpos in
    let build_pages = Nra_storage.Iosim.pages (Array.length right_rows) in
    match Nra_storage.Bufpool.frames () with
    | Some frames when build_pages > frames ->
        (* the grace/hybrid path runs its spilled partitions under the
           Domain pool itself (iter_raw workers + owner-side ledger
           replay), so out-of-core and parallel compose *)
        hash_grace ~lpos ~rpos ~residual_pred ~frames ~lvecs ~rvecs left_rows
          right_rows
    | _ ->
        if
          Pool.use_parallel
            (max (Array.length left_rows) (Array.length right_rows))
        then
          hash_parallel ~lpos ~rpos ~residual_pred ~lvecs ~rvecs left_rows
            right_rows
        else
          hash_serial ~lpos ~rpos ~residual_pred ~lvecs ~rvecs left_rows
            right_rows
  end

let join kind ~on left right =
  emit_all kind left right (matches ~on left right)
