open Nra_relational
module Pool = Nra_pool.Pool

(* Scan+filter is the third parallel kernel (after hash join and nest):
   Exec.Frame funnels every block's local predicates through here.
   Morsels keep their relative order, so the output row order is the
   serial one.

   When the predicate compiles to the vectorizable subset, each morsel
   evaluates typed column loops over the relation's batch (a base
   table's own, or a transient one) and returns a bitmap; the owner
   lists the positions in chunk order into a borrowed buffer and
   gathers the original rows once.  Otherwise morsels fall back to
   [Expr.holds] row-at-a-time.  Both paths emit the same physical rows
   in the same order. *)

(* Filter a morsel row-at-a-time into a row array (no list rebuild on
   the owner: each morsel packs its survivors once, backwards). *)
let filter_morsel pred rows ~lo ~hi =
  let acc = ref [] and cnt = ref 0 in
  for i = lo to hi - 1 do
    if Expr.holds pred rows.(i) then begin
      acc := rows.(i) :: !acc;
      incr cnt
    end
  done;
  if !cnt = 0 then [||]
  else begin
    let out = Array.make !cnt rows.(lo) in
    let rec fill i = function
      | [] -> ()
      | r :: tl ->
          out.(i) <- r;
          fill (i - 1) tl
    in
    fill (!cnt - 1) !acc;
    out
  end

(* [select]'s columnar path without the gather: the surviving rows'
   count, and their positions written into a buffer the caller owns.
   Morsels return bitmaps (a bit per row), which the owner lists in
   chunk order; the morsel split is [select]'s, so the checkpoints are
   too. *)
let selection ?batch pred rel =
  let n = Relation.cardinality rel in
  let batch =
    match batch with Some b -> b | None -> Batch.of_relation rel
  in
  Option.map
    (fun bits ->
      let parts =
        if not (Pool.use_parallel n) then [| (0, bits ~lo:0 ~hi:n) |]
        else Pool.parallel_chunks ~n (fun _ledger ~lo ~hi -> (lo, bits ~lo ~hi))
      in
      let count =
        Array.fold_left (fun c (_, b) -> c + Batch.Bitset.popcount b) 0 parts
      in
      let write sel =
        ignore
          (Array.fold_left
             (fun at (lo, b) -> Batch.Bitset.indices_into ~base:lo b sel at)
             0 parts)
      in
      (count, write))
    (Batch.filter_bits pred batch)

let select ?batch pred rel =
  let rows = Relation.rows rel in
  let n = Array.length rows in
  match selection ?batch pred rel with
  | Some (count, write) ->
      Scratch.with_ints count (fun sel ->
          write sel;
          Relation.gather rel sel count)
  | None ->
      if not (Pool.use_parallel n) then
        Relation.filter (Expr.holds pred) rel
      else
        Relation.make (Relation.schema rel)
          (Array.concat
             (Array.to_list
                (Pool.parallel_chunks ~n (fun _ledger ~lo ~hi ->
                     filter_morsel pred rows ~lo ~hi))))

let project_cols idxs rel = Relation.project rel idxs

let project_exprs items rel =
  let schema = Schema.of_columns (List.map snd items) in
  let exprs = Array.of_list (List.map fst items) in
  let n = Array.length exprs in
  (* each output row is filled in place, in expression order, without a
     partially applied [eval_scalar] per row *)
  Relation.map_rows schema
    (fun row ->
      let out = Array.make n Value.Null in
      for j = 0 to n - 1 do
        out.(j) <- Expr.eval_scalar row exprs.(j)
      done;
      out)
    rel

(* The output cardinality is known exactly, so fill a pre-sized array
   instead of reversing an accumulated list. *)
let product left right =
  let schema = Schema.append (Relation.schema left) (Relation.schema right) in
  let lrows = Relation.rows left and rrows = Relation.rows right in
  let nl = Array.length lrows and nr = Array.length rrows in
  if nl = 0 || nr = 0 then Relation.make schema [||]
  else begin
    let out = Array.make (nl * nr) [||] in
    for i = 0 to nl - 1 do
      let l = lrows.(i) and base = i * nr in
      for j = 0 to nr - 1 do
        out.(base + j) <- Row.concat l rrows.(j)
      done
    done;
    Relation.make schema out
  end

let distinct rel = Relation.dedup rel

let limit n rel =
  let rows = Relation.rows rel in
  let n = min n (Array.length rows) in
  Relation.make (Relation.schema rel) (Array.sub rows 0 n)
