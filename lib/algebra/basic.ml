open Nra_relational
module Pool = Nra_pool.Pool

(* Scan+filter is the third parallel kernel (after hash join and nest):
   Exec.Frame funnels every block's local predicates through here.

   A filter writes the positions of the rows that pass, ascending, into
   one buffer borrowed from [Scratch] and hands it on; [select] gathers
   the original rows once.  When the predicate compiles to the
   vectorizable subset ([Batch.filter]) the positions come from typed
   column loops over the relation's batch (a base table's own, or a
   transient one); otherwise each row is tested with [Expr.holds], in
   position order.  Under the pool each morsel writes only its own
   [lo, hi) region of the buffer, and the owner compacts the regions in
   chunk order, so every pool size lists the same positions. *)

(* the positions in [lo, hi) whose row satisfies [pred], ascending,
   written into [sel] from [lo]; returns the end *)
let select_rows pred rows sel ~lo ~hi =
  let k = ref lo in
  for i = lo to hi - 1 do
    if Expr.holds pred (Array.unsafe_get rows i) then begin
      Array.unsafe_set sel !k i;
      incr k
    end
  done;
  !k

let selection ?batch pred rel f =
  let rows = Relation.rows rel in
  let n = Array.length rows in
  if n = 0 then f [||] 0
  else
    let batch =
      match batch with Some b -> b | None -> Batch.of_relation rel
    in
    let select =
      match Batch.filter pred batch with
      | Some select -> select
      | None -> select_rows pred rows
    in
    Scratch.with_ints n @@ fun sel ->
    let count =
      if not (Pool.use_parallel n) then select sel ~lo:0 ~hi:n
      else
        Array.fold_left
          (fun w (lo, stop) ->
            for j = lo to stop - 1 do
              Array.unsafe_set sel (w + j - lo) (Array.unsafe_get sel j)
            done;
            w + stop - lo)
          0
          (Pool.parallel_chunks ~n (fun _ledger ~lo ~hi ->
               (lo, select sel ~lo ~hi)))
    in
    f sel count

let select ?batch pred rel =
  selection ?batch pred rel (fun sel count -> Relation.gather rel sel count)

let project_cols idxs rel = Relation.project rel idxs

let project_exprs ?sel items rel =
  let schema = Schema.of_columns (List.map snd items) in
  let exprs = Array.of_list (List.map fst items) in
  let n = Array.length exprs in
  (* each output row is filled in place, in expression order, without a
     partially applied [eval_scalar] per row *)
  let project row =
    let out = Array.make n Value.Null in
    for j = 0 to n - 1 do
      out.(j) <- Expr.eval_scalar row exprs.(j)
    done;
    out
  in
  match sel with
  | None -> Relation.map_rows schema project rel
  | Some (sel, count) ->
      let rows = Relation.rows rel in
      Relation.make schema
        (Array.init count (fun k -> project rows.(Array.unsafe_get sel k)))

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
