open Nra_relational
open Nra_storage
open Nra_planner

exception Unsupported of string

let to_scalar schema e =
  try Resolved.to_scalar schema e
  with Resolved.Unbound c ->
    raise (Unsupported (Printf.sprintf "column %s not in frame" c))

let to_pred schema conds =
  try Expr.fold_pred (Expr.conj (List.map (Resolved.to_pred schema) conds))
  with Resolved.Unbound c ->
    raise (Unsupported (Printf.sprintf "column %s not in frame" c))

let cond_uids c =
  List.sort_uniq String.compare
    (List.map (fun rc -> rc.Resolved.uid) (Resolved.cond_cols c))

let applicable ~uids c =
  List.for_all (fun u -> List.mem u uids) (cond_uids c)

(* Scan charges are chunked, with a checkpoint between chunks: a
   monolithic [charge_scan_rows] for a large table would make the whole
   scan one atomic slice — budgets would only be checked (and the
   scheduler could only preempt) once per table.  Chunks are whole
   pages, so the page total (and therefore the charge) is identical to
   the single-call form. *)
let scan_chunk_pages = 8

(* When the buffer pool is enabled and the scan has a table identity,
   the scan goes through the pool page by page: resident pages are
   free, misses are charged page-ins.  This is what makes rescans of a
   small inner table cheap under the paper's 32 MB cache — and
   thrashing visible when the budget is tiny.  Without a pool (the
   default) the charge is the flat sequential form it always was. *)
let charge_scan_chunked ?table n =
  match (Bufpool.frames (), table) with
  | Some _, Some name ->
      let npages = Iosim.pages n in
      let owner = Bufpool.owner name in
      for p = 0 to npages - 1 do
        Bufpool.read owner p;
        if p mod scan_chunk_pages = scan_chunk_pages - 1 then
          Nra_guard.Guard.tick ()
      done;
      Nra_guard.Guard.tick ()
  | _ ->
      let per = scan_chunk_pages * (Iosim.config ()).Iosim.rows_per_page in
      let remaining = ref n in
      while !remaining > 0 do
        Fault.retrying Iosim.charge_scan_rows (min per !remaining);
        Nra_guard.Guard.tick ();
        remaining := !remaining - per
      done

(* The scan every block input starts with: one checkpoint and one
   charged scan per base table.  Pages are keyed by the catalog table
   a binding reads, not by its alias, so two bindings of one table
   share them; a statement-local relation (a CTE) has no pages in the
   pool and is charged as a plain sequential scan. *)
let scan ~charge (b : Analyze.block) =
  Nra_guard.Guard.tick ();
  if charge then
    List.iter
      (fun (bd : Analyze.binding) ->
        charge_scan_chunked ?table:bd.Analyze.source
          (Table.cardinality bd.Analyze.table))
      b.Analyze.bindings

let join_bindings (b : Analyze.block) =
  let pending = ref b.Analyze.local in
  let take uids =
    let now, later = List.partition (applicable ~uids) !pending in
    pending := later;
    now
  in
  match b.Analyze.bindings with
  | [] -> invalid_arg "block_relation: no bindings"
  | first :: rest ->
      let rel = ref (Table.relation first.Analyze.table) in
      let uids = ref [ first.Analyze.uid ] in
      let conds = take !uids in
      if conds <> [] then
        rel :=
          Nra_algebra.Basic.select
            ~batch:(Table.batch first.Analyze.table)
            (to_pred (Relation.schema !rel) conds)
            !rel;
      List.iter
        (fun (bd : Analyze.binding) ->
          uids := bd.Analyze.uid :: !uids;
          let joined_schema =
            Schema.append (Relation.schema !rel)
              (Relation.schema (Table.relation bd.Analyze.table))
          in
          let conds = take !uids in
          rel :=
            Nra_algebra.Join.join Nra_algebra.Join.Inner
              ~on:(to_pred joined_schema conds)
              !rel
              (Table.relation bd.Analyze.table))
        rest;
      assert (!pending = []);
      !rel

let block_relation ?(charge = true) b =
  scan ~charge b;
  join_bindings b

let with_block_input (b : Analyze.block) f =
  scan ~charge:true b;
  match (b.Analyze.bindings, b.Analyze.local) with
  | [ bd ], _ :: _ ->
      let base = Table.relation bd.Analyze.table in
      Nra_algebra.Basic.selection
        ~batch:(Table.batch bd.Analyze.table)
        (to_pred (Relation.schema base) b.Analyze.local)
        base
        (fun sel count -> f base (Some (sel, count)))
  | _ -> f (join_bindings b) None

let single_binding (b : Analyze.block) =
  match b.Analyze.bindings with [ bd ] -> Some bd | _ -> None
