open Nra_relational
module Pool = Nra_pool.Pool

type kind = Inner | Left_outer | Semi | Anti

type matches = { off : int array; len : int array; pos : int array }

let out_schema kind left right =
  match kind with
  | Inner | Left_outer ->
      Schema.append (Relation.schema left) (Relation.schema right)
  | Semi | Anti -> Relation.schema left

(* Every variant below computes one thing, the probe primitive: per
   left row (by position), the positions of its matching right rows in
   build order, as a range [off.(i), off.(i) + len.(i)) of one [pos]
   vector.  [join] is [emit_all] over that range in left order, so no
   variant has a second probe path, and a consumer that groups matches
   itself (the NRA executor's fused nest) reads the same vectors.  The
   output size is known before a row is built, so the result is one
   pre-sized array. *)
let emit_all kind left right (m : matches) =
  let lrows = Relation.rows left and rrows = Relation.rows right in
  let n = Array.length lrows in
  let size = ref 0 in
  for i = 0 to n - 1 do
    let l = m.len.(i) in
    size :=
      !size
      +
      match kind with
      | Inner -> l
      | Left_outer -> max 1 l
      | Semi -> if l > 0 then 1 else 0
      | Anti -> if l = 0 then 1 else 0
  done;
  let out = Array.make !size [||] in
  let k = ref 0 in
  let nulls = Row.nulls (Schema.arity (Relation.schema right)) in
  for i = 0 to n - 1 do
    let lrow = lrows.(i) and l = m.len.(i) in
    match kind with
    | Inner | Left_outer ->
        if l = 0 && kind = Left_outer then begin
          out.(!k) <- Row.concat lrow nulls;
          incr k
        end
        else
          for q = m.off.(i) to m.off.(i) + l - 1 do
            out.(!k) <- Row.concat lrow rrows.(m.pos.(q));
            incr k
          done
    | Semi ->
        if l > 0 then begin
          out.(!k) <- lrow;
          incr k
        end
    | Anti ->
        if l = 0 then begin
          out.(!k) <- lrow;
          incr k
        end
  done;
  Relation.make (out_schema kind left right) out

(* a trivially-true residual (the Cartesian fallback in join-nest
   fusion, or an equi-only join) needs no per-pair concat to test it *)
let trivially_true = function
  | Expr.Lit3 Three_valued.True -> true
  | _ -> false

(* ---------- the reference ---------- *)

(* The plain nested loop, independent of the [Keyed] table below: tests
   hold every variant to it. *)
let nested_loop kind ~on left right =
  let rrows = Relation.rows right in
  let right_arity = Schema.arity (Relation.schema right) in
  let out = ref [] in
  Array.iter
    (fun lrow ->
      Nra_guard.Guard.tick ();
      let ms =
        List.filter
          (fun rrow -> Expr.holds on (Row.concat lrow rrow))
          (Array.to_list rrows)
      in
      match (kind, ms) with
      | (Inner | Left_outer), _ :: _ ->
          List.iter (fun rrow -> out := Row.concat lrow rrow :: !out) ms
      | Left_outer, [] -> out := Row.concat lrow (Row.nulls right_arity) :: !out
      | Semi, _ :: _ | Anti, [] -> out := lrow :: !out
      | _ -> ())
    (Relation.rows left);
  Relation.of_rows (out_schema kind left right) (List.rev !out)

(* ---------- the probe ----------

   The build side is one [Keyed] table over the right relation's rows,
   or the [m] of them a selection vector names, keyed on the right
   equi-columns with NULL keys unlinked; entry [j] is right row
   [base t j].  The probe side is a [source] of [n] rows; each probing
   domain reads them through a reader of its own ([t.reader ()]), so
   left row [i] is [left i], and the offset vectors are indexed by
   [i].  A left row's candidates are the entries
   [Keyed.first]/[next_equal] step to under its key, in build
   order; a candidate matches when the residual holds on the
   concatenated pair.  With no equi-conjunct the key is empty, every
   entry lands in one chain, and the probe is the nested loop under
   the residual [on].

   The table's arrays and every int array here are borrowed from
   [Scratch] for the extent of [with_matches]; a parallel region reads
   the table, and its workers write disjoint slices of buffers borrowed
   before it starts. *)

type source = { count : int; arity : int; reader : unit -> int -> Row.t }

type probe = {
  tbl : Keyed.t;
  sel : int array option;
  rpos : int array;
  reader : unit -> int -> Row.t;
  n : int;
  lpos : int array;
  residual : Expr.pred;
  all_match : bool;
  left_arity : int;
  width : int;
}

let base t j = match t.sel with None -> j | Some s -> Array.unsafe_get s j

(* The residual is tested on one wide row per domain, reused: [bind]
   writes a left row into its left part once, and [seek] each
   candidate into its right part, so no pair is concatenated.  A probe
   whose residual is trivially true needs none. *)
let wide_row t = if t.all_match then [||] else Array.make t.width Value.Null

let bind t w lrow =
  if not t.all_match then Array.blit lrow 0 w 0 t.left_arity

(* The chain walks, top-level recursions so a probe allocates nothing:
   [seek] is the first match from candidate [j] on, or -1, with [w]
   bound to [lrow]. *)
let rec seek t w lrow j =
  if j < 0 || t.all_match then j
  else begin
    let r = Keyed.row t.tbl j in
    Array.blit r 0 w t.left_arity (t.width - t.left_arity);
    if Expr.holds t.residual w then j
    else seek t w lrow (Keyed.next_equal t.tbl t.lpos lrow j)
  end

let first_match t w lrow =
  if Row.has_null_on t.lpos lrow then -1
  else begin
    bind t w lrow;
    seek t w lrow (Keyed.first t.tbl t.lpos lrow)
  end

let next_match t w lrow j =
  seek t w lrow (Keyed.next_equal t.tbl t.lpos lrow j)

(* count a left row's matches from [j] on, or write their right
   positions forward from [at] *)
let rec count_from t w lrow j acc =
  if j < 0 then acc
  else count_from t w lrow (next_match t w lrow j) (acc + 1)

let rec fill_from t w lrow j dst at =
  if j >= 0 then begin
    dst.(at) <- base t j;
    fill_from t w lrow (next_match t w lrow j) dst (at + 1)
  end

(* the serial probe's output: [pos] grows (through [Scratch]) as the
   left rows append their matches *)
type cursor = { mutable buf : int array; mutable fill : int }

let rec push_from t w lrow j cur =
  if j >= 0 then begin
    if cur.fill = Array.length cur.buf then
      cur.buf <- Scratch.grow cur.buf ~keep:cur.fill (cur.fill + 1);
    cur.buf.(cur.fill) <- base t j;
    cur.fill <- cur.fill + 1;
    push_from t w lrow (next_match t w lrow j) cur
  end

let probe_serial t ~off ~len cur =
  let w = wide_row t and left = t.reader () in
  for i = 0 to t.n - 1 do
    Nra_guard.Guard.tick ();
    let lrow = left i in
    off.(i) <- cur.fill;
    push_from t w lrow (first_match t w lrow) cur;
    len.(i) <- cur.fill - off.(i)
  done

(* Parallel variant: left morsels count their rows' matches (the
   checkpoints accrue to the morsel's ledger, per the guard contract in
   docs/PERF.md) and keep each row's first match in its [off] slot; the
   owner sizes [pos] and turns each morsel's total into its slice
   start; a second region, one unit per morsel, writes each row's
   matches from its first match into the morsel's slice, so no row is
   hashed twice.  Bit-identical to the serial probe. *)
type span = { lo : int; hi : int; mutable at : int }

let probe_parallel t ~off ~len cur =
  let spans =
    Pool.parallel_chunks ~n:t.n (fun ledger ~lo ~hi ->
        let w = wide_row t and left = t.reader () in
        let total = ref 0 in
        for i = lo to hi - 1 do
          Pool.Ledger.tick ledger;
          let lrow = left i in
          let j = first_match t w lrow in
          let c = count_from t w lrow j 0 in
          off.(i) <- j;
          len.(i) <- c;
          total := !total + c
        done;
        { lo; hi; at = !total })
  in
  let total = ref 0 in
  Array.iter
    (fun s ->
      let c = s.at in
      s.at <- !total;
      total := !total + c)
    spans;
  cur.buf <- Scratch.grow cur.buf ~keep:0 !total;
  cur.fill <- !total;
  let dst = cur.buf in
  ignore
    (Pool.parallel_chunks ~min_chunk:1 ~n:(Array.length spans)
       (fun _ledger ~lo ~hi ->
         let w = wide_row t and left = t.reader () in
         for k = lo to hi - 1 do
           let s = spans.(k) in
           let at = ref s.at in
           for i = s.lo to s.hi - 1 do
             let j = off.(i) in
             off.(i) <- !at;
             if j >= 0 then begin
               let lrow = left i in
               bind t w lrow;
               fill_from t w lrow j dst !at;
               at := !at + len.(i)
             end
           done
         done))

(* Grace/hybrid variant: when the build side exceeds the buffer pool's
   frame budget, partition both inputs by key hash into [nparts]
   buckets sized so one bucket's build table fits the budget.  Bucket 0
   is probed on the fly during the left pass (the "hybrid"
   refinement); the others spill through Bufpool.Spill — charged page
   writes under the budget, charged page reads when each partition is
   processed build-then-probe.

   The rows stay on the heap, so the spills carry the accounting, not
   the data: a spill partition holds positions, build entries on the
   right and left row positions on the left.  No pass reads the right
   positions back (they are written only for their pages), so every
   right spill writes into the same region of one buffer.  A first pass
   hashes the left rows, records each one's partition and sizes the
   left partitions, so they share one borrowed buffer, each in its own
   slice.  Every partition probes the one table built before these
   passes: equal keys hash to one partition, so a left row's chain
   holds exactly its partition's entries of that key, in build order.
   (A table per partition, built inside the regions, allocates more per
   statement: see docs/PERF.md.)  The spilled partitions run under the
   Domain pool, one chunk per partition, in two regions: the first
   counts every spilled left row's matches, with the same checkpoints
   as one probe pass, and keeps the row's first match in its [off]
   slot; the owner then gives each partition its slice of [pos]; the
   second writes the matches from that first match, so no row is
   hashed there again, and records the consumed spills.  The owner
   replays each partition's page reads and frees it at that barrier,
   in partition order, so charges and fault draws are identical at
   every pool size, and the result is bit-identical to the serial
   probe. *)
let probe_grace t ~nparts ~off ~len cur =
  let module B = Nra_storage.Bufpool in
  let m = Keyed.length t.tbl in
  let part pos row =
    if Row.has_null_on pos row then -1
    else Row.hash_on pos row land max_int mod nparts
  in
  (* hash the left rows once: [len.(i)] holds left row [i]'s partition
     (-1 for a NULL key) until the probe pass reads it, and the sizes
     make the left spills slices of one borrowed buffer *)
  let lsize = Array.make nparts 0 in
  let left = t.reader () in
  for i = 0 to t.n - 1 do
    let p = part t.lpos (left i) in
    len.(i) <- p;
    if p >= 0 then lsize.(p) <- lsize.(p) + 1
  done;
  let spilled = ref 0 in
  let lslices =
    Array.init (nparts - 1) (fun k ->
        let base = !spilled in
        spilled := !spilled + lsize.(k + 1);
        base)
  in
  Scratch.with_ints m @@ fun rbuf ->
  Scratch.with_ints !spilled @@ fun lbuf ->
  let rspills =
    Array.init (nparts - 1) (fun _ -> B.Spill.create rbuf ~base:0)
  in
  let lspills = Array.map (fun base -> B.Spill.create lbuf ~base) lslices in
  let free_all () =
    Array.iter B.Spill.free rspills;
    Array.iter B.Spill.free lspills
  in
  Fun.protect ~finally:free_all @@ fun () ->
  (* build pass: spill the right side by partition *)
  for j = 0 to m - 1 do
    Nra_guard.Guard.tick ();
    let p = part t.rpos (Keyed.row t.tbl j) in
    if p > 0 then B.Spill.add rspills.(p - 1) j
  done;
  Array.iter B.Spill.finish rspills;
  (* probe pass: partition 0 resolved immediately, the rest deferred *)
  let w = wide_row t in
  for i = 0 to t.n - 1 do
    Nra_guard.Guard.tick ();
    let lrow = left i and p = len.(i) in
    off.(i) <- cur.fill;
    len.(i) <- 0;
    if p = 0 then begin
      push_from t w lrow (first_match t w lrow) cur;
      len.(i) <- cur.fill - off.(i)
    end
    else if p > 0 then B.Spill.add lspills.(p - 1) i
  done;
  Array.iter B.Spill.finish lspills;
  (* [start.(p)]: partition p's match count, then its slice start *)
  let start = Array.make nparts 0 in
  ignore
    (Pool.parallel_chunks ~min_chunk:1 ~n:(nparts - 1)
       (fun ledger ~lo ~hi ->
         let w = wide_row t and left = t.reader () in
         for k = lo to hi - 1 do
           Pool.Ledger.tick ledger;
           B.Spill.iter_raw lspills.(k) (fun i ->
               Pool.Ledger.tick ledger;
               let lrow = left i in
               let j = first_match t w lrow in
               off.(i) <- j;
               let c = count_from t w lrow j 0 in
               len.(i) <- c;
               start.(k + 1) <- start.(k + 1) + c)
         done));
  let total = ref cur.fill in
  for p = 1 to nparts - 1 do
    let c = start.(p) in
    start.(p) <- !total;
    total := !total + c
  done;
  cur.buf <- Scratch.grow cur.buf ~keep:cur.fill !total;
  cur.fill <- !total;
  let dst = cur.buf in
  ignore
    (Pool.parallel_chunks ~min_chunk:1 ~n:(nparts - 1)
       (fun ledger ~lo ~hi ->
         let w = wide_row t and left = t.reader () in
         for k = lo to hi - 1 do
           let at = ref start.(k + 1) in
           B.Spill.iter_raw lspills.(k) (fun i ->
               let j = off.(i) in
               off.(i) <- !at;
               if j >= 0 then begin
                 let lrow = left i in
                 bind t w lrow;
                 fill_from t w lrow j dst !at;
                 at := !at + len.(i)
               end);
           Pool.Ledger.consumed_spill ledger rspills.(k);
           Pool.Ledger.consumed_spill ledger lspills.(k)
         done))

(* A Cartesian site (no equi-conjunct, trivially-true [on]): every left
   row points at one shared range of all the build entries, so memory
   stays O(left + right). *)
let probe_cartesian ~m ~sel ~n ~off ~len cur =
  cur.buf <- Scratch.grow cur.buf ~keep:0 m;
  for j = 0 to m - 1 do
    cur.buf.(j) <- (match sel with None -> j | Some s -> s.(j))
  done;
  cur.fill <- m;
  let point ~lo ~hi =
    for i = lo to hi - 1 do
      off.(i) <- 0;
      len.(i) <- m
    done
  in
  if Pool.use_parallel n then
    ignore
      (Pool.parallel_chunks ~n (fun ledger ~lo ~hi ->
           for _ = lo to hi - 1 do
             Pool.Ledger.tick ledger
           done;
           point ~lo ~hi))
  else
    for i = 0 to n - 1 do
      Nra_guard.Guard.tick ();
      point ~lo:i ~hi:(i + 1)
    done

let with_matches_of ~on ?sel (source : source) right f =
  let left_arity = source.arity and n = source.count in
  let equi, residual = Expr.split_equi ~left_arity on in
  let rows = Relation.rows right in
  let m = match sel with Some (_, count) -> count | None -> Array.length rows in
  Scratch.with_ints n @@ fun off ->
  Scratch.with_ints n @@ fun len ->
  let cur = { buf = Scratch.borrow (max n m); fill = 0 } in
  Fun.protect ~finally:(fun () -> Scratch.release cur.buf) @@ fun () ->
  if equi = [] && trivially_true on then
    probe_cartesian ~m ~sel:(Option.map fst sel) ~n ~off ~len cur
  else begin
    let grace =
      let build_pages = Nra_storage.Iosim.pages m in
      match Nra_storage.Bufpool.frames () with
      | Some frames when equi <> [] && build_pages > frames ->
          let budget = max 1 (frames - 1) in
          Some (min 64 (max 2 ((build_pages + budget - 1) / budget)))
      | _ -> None
    in
    let rpos = Array.of_list (List.map snd equi) in
    Keyed.with_scratch ~nulls:`Skip ?sel ~pos:rpos rows @@ fun tbl ->
    let t =
      {
        tbl;
        sel = Option.map fst sel;
        rpos;
        reader = source.reader;
        n;
        lpos = Array.of_list (List.map fst equi);
        residual = (if equi = [] then on else Expr.conj residual);
        all_match = equi <> [] && trivially_true (Expr.conj residual);
        left_arity;
        width = left_arity + Schema.arity (Relation.schema right);
      }
    in
    match grace with
    | Some nparts ->
        (* the grace/hybrid path runs its spilled partitions under the
           Domain pool itself (iter_raw workers + owner-side ledger
           replay), so out-of-core and parallel compose *)
        probe_grace t ~nparts ~off ~len cur
    | None ->
        let parallel =
          Pool.use_parallel (if equi = [] then n else max n m)
        in
        if parallel then probe_parallel t ~off ~len cur
        else probe_serial t ~off ~len cur
  end;
  f { off; len; pos = cur.buf }

(* a stored relation's rows, or the [count] of them a selection names,
   read in place: every domain shares one reader *)
let relation_source ?left_sel rel =
  let rows = Relation.rows rel in
  let arity = Schema.arity (Relation.schema rel) in
  match left_sel with
  | None ->
      let get i = rows.(i) in
      { count = Array.length rows; arity; reader = (fun () -> get) }
  | Some (s, count) ->
      let get i = rows.(Array.unsafe_get s i) in
      { count; arity; reader = (fun () -> get) }

let with_matches ~on ?left_sel ?sel left right f =
  with_matches_of ~on ?sel (relation_source ?left_sel left) right f

let join kind ~on left right =
  with_matches ~on left right (emit_all kind left right)
