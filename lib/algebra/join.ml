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

(* The plain nested loop, independent of the table below: tests hold
   every variant to it. *)
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

(* ---------- the chained table ----------

   The build side is the right relation's rows, or the [m] of them a
   selection vector names; build entry [j] is row [entry t j].  The
   probe side is likewise the left relation's rows or the [n] of them a
   left selection names; left row [i] is [left t i], and the offset
   vectors are indexed by [i].  The table is flat: [rhash.(j)] is
   entry [j]'s key hash and [next.(j)] the next entry of its bucket
   chain, and partition [p]'s buckets are [head.(hbase.(p) + b)] for
   [b <= hmask.(p)].  A partition is the key hash mod [nparts] (one,
   except on the grace path), so a key's entries all live in one
   partition.  NULL-keyed entries are never linked.

   An entry matches left row [lrow] of hash [h] when its stored hash
   is [h] and its keys and the residual agree, so a chain walk visits
   in build order exactly the entries a table keyed on the hash holds
   under [h].  With no equi-conjunct the key is empty, every entry
   hashes alike and lands in one chain, and the probe is the nested
   loop under the residual [on].

   Every int array here is borrowed from [Scratch] for the extent of
   [with_matches]; a parallel region's buffers are borrowed before it
   starts, and its workers write disjoint slices. *)

type table = {
  rows : Row.t array;
  sel : int array option;
  m : int;
  lrows : Row.t array;
  lsel : int array option;
  n : int;
  lpos : int array;
  rpos : int array;
  residual : Expr.pred;
  all_match : bool;
  rhash : int array;
  next : int array;
  mutable head : int array;
  nparts : int;
  hbase : int array;
  hmask : int array;
}

let entry t j = match t.sel with None -> j | Some s -> Array.unsafe_get s j

let left t i =
  match t.lsel with
  | None -> t.lrows.(i)
  | Some s -> t.lrows.(Array.unsafe_get s i)

let part t h = h land max_int mod t.nparts

let slot t h =
  let p = part t h in
  t.hbase.(p) + ((h land max_int) / t.nparts land t.hmask.(p))

let rec pow2_at_least k n = if k >= n then k else pow2_at_least (2 * k) n

let rec keys_equal lpos rpos lrow rrow i =
  i >= Array.length lpos
  || Value.equal lrow.(lpos.(i)) rrow.(rpos.(i))
     && keys_equal lpos rpos lrow rrow (i + 1)

let matches_entry t lrow h j =
  Array.unsafe_get t.rhash j = h
  &&
  let rrow = t.rows.(entry t j) in
  keys_equal t.lpos t.rpos lrow rrow 0
  && (t.all_match || Expr.holds t.residual (Row.concat lrow rrow))

(* The chain walks, top-level recursions so a probe allocates nothing:
   count a left row's matches, or write their right positions forward
   from [at] (chains in build order) or backward from [at] (chains
   linked in reverse, on the grace path). *)
let rec count_chain t lrow h j acc =
  if j < 0 then acc
  else
    count_chain t lrow h t.next.(j)
      (if matches_entry t lrow h j then acc + 1 else acc)

let rec fill_chain t lrow h j dst at =
  if j < 0 then ()
  else if matches_entry t lrow h j then begin
    dst.(at) <- entry t j;
    fill_chain t lrow h t.next.(j) dst (at + 1)
  end
  else fill_chain t lrow h t.next.(j) dst at

let rec fill_chain_rev t lrow h j dst at =
  if j < 0 then ()
  else if matches_entry t lrow h j then begin
    dst.(at) <- entry t j;
    fill_chain_rev t lrow h t.next.(j) dst (at - 1)
  end
  else fill_chain_rev t lrow h t.next.(j) dst at

(* the serial probe's output: [pos] grows (through [Scratch]) as the
   left rows append their matches *)
type cursor = { mutable buf : int array; mutable fill : int }

let rec push_chain t lrow h j cur =
  if j >= 0 then begin
    if matches_entry t lrow h j then begin
      if cur.fill = Array.length cur.buf then
        cur.buf <- Scratch.grow cur.buf ~keep:cur.fill (cur.fill + 1);
      cur.buf.(cur.fill) <- entry t j;
      cur.fill <- cur.fill + 1
    end;
    push_chain t lrow h t.next.(j) cur
  end

(* Hash every build entry and link the table in one partition.
   Linking from the last entry to the first leaves every chain in
   build order. *)
let link_all t =
  Array.fill t.head 0 (t.hmask.(0) + 1) (-1);
  for j = t.m - 1 downto 0 do
    let rrow = t.rows.(entry t j) in
    if not (Row.has_null_on t.rpos rrow) then begin
      let h = Row.hash_on t.rpos rrow in
      t.rhash.(j) <- h;
      let s = slot t h in
      t.next.(j) <- t.head.(s);
      t.head.(s) <- j
    end
  done

let probe_serial t ~off ~len cur =
  link_all t;
  for i = 0 to t.n - 1 do
    Nra_guard.Guard.tick ();
    let lrow = left t i in
    off.(i) <- cur.fill;
    if not (Row.has_null_on t.lpos lrow) then begin
      let h = Row.hash_on t.lpos lrow in
      push_chain t lrow h t.head.(slot t h) cur
    end;
    len.(i) <- cur.fill - off.(i)
  done

(* Parallel variant: the owner links the table; left morsels count
   their rows' matches (the checkpoints accrue to the morsel's ledger,
   per the guard contract in docs/PERF.md); the owner turns the counts
   into offsets and sizes [pos]; a second pass over the same morsels
   writes each row's matches into its own slice.  Bit-identical to the
   serial probe. *)
let probe_parallel t ~off ~len cur =
  link_all t;
  let n = t.n in
  ignore
    (Pool.parallel_chunks ~n (fun ledger ~lo ~hi ->
         for i = lo to hi - 1 do
           Pool.Ledger.tick ledger;
           let lrow = left t i in
           len.(i) <-
             (if Row.has_null_on t.lpos lrow then 0
              else
                let h = Row.hash_on t.lpos lrow in
                count_chain t lrow h t.head.(slot t h) 0)
         done));
  let total = ref 0 in
  for i = 0 to n - 1 do
    off.(i) <- !total;
    total := !total + len.(i)
  done;
  cur.buf <- Scratch.grow cur.buf ~keep:0 !total;
  cur.fill <- !total;
  let dst = cur.buf in
  ignore
    (Pool.parallel_chunks ~n (fun _ledger ~lo ~hi ->
         for i = lo to hi - 1 do
           if len.(i) > 0 then begin
             let lrow = left t i in
             let h = Row.hash_on t.lpos lrow in
             fill_chain t lrow h t.head.(slot t h) dst off.(i)
           end
         done))

(* Grace/hybrid variant: when the build side exceeds the buffer pool's
   frame budget, partition both inputs by key hash into [nparts]
   buckets sized so one bucket's build table fits the budget.  Bucket 0
   is kept in memory and probed on the fly during the left pass (the
   "hybrid" refinement); the others spill through Bufpool.Spill —
   charged page writes under the budget, charged page reads when each
   partition is processed build-then-probe.

   A spill partition holds positions, not rows: build-entry indices on
   the right (so a selection's base positions are read through it, and
   no row is gathered) and row positions on the left.  A first pass
   hashes both sides and sizes every partition, so all partitions
   share one borrowed buffer, each in its own slice.  The spilled
   partitions run under the Domain pool, one chunk per partition, in
   two regions.  The first links each partition's chain table from its
   spill (in arrival order, so chains come out in reverse build order)
   and counts every spilled left row's matches, with the same
   checkpoints as one probe pass; the owner then gives each partition
   its slice of [pos]; the second writes the matches, back to front
   along the reversed chains, and records the consumed spills.  The
   owner replays each partition's page reads and frees it at that
   barrier, in partition order, so charges and fault draws are
   identical at every pool size.  Bit-identical to the serial probe:
   partition [p]'s chains hold exactly the entries of hash [h] with
   [h mod nparts = p], in build order once reversed. *)
let probe_grace t ~nparts ~off ~len cur =
  let module B = Nra_storage.Bufpool in
  (* hash the build entries ([next] marks a NULL-keyed one -2 until
     partition 0 is linked) and size every partition on both sides, so
     all spilled positions fit one borrowed buffer *)
  let psize = Array.make nparts 0 and lsize = Array.make nparts 0 in
  for j = 0 to t.m - 1 do
    let rrow = t.rows.(entry t j) in
    if Row.has_null_on t.rpos rrow then t.next.(j) <- -2
    else begin
      let h = Row.hash_on t.rpos rrow in
      t.rhash.(j) <- h;
      t.next.(j) <- -1;
      psize.(part t h) <- psize.(part t h) + 1
    end
  done;
  for i = 0 to t.n - 1 do
    let lrow = left t i in
    if not (Row.has_null_on t.lpos lrow) then begin
      let p = part t (Row.hash_on t.lpos lrow) in
      lsize.(p) <- lsize.(p) + 1
    end
  done;
  let spilled = ref 0 in
  let spill sizes =
    Array.init (nparts - 1) (fun k ->
        let base = !spilled in
        spilled := !spilled + sizes.(k + 1);
        base)
  in
  let rslices = spill psize in
  let lslices = spill lsize in
  Scratch.with_ints !spilled @@ fun buf ->
  let create base = B.Spill.create buf ~base in
  let rspills = Array.map create rslices in
  let lspills = Array.map create lslices in
  let free_all () =
    Array.iter B.Spill.free rspills;
    Array.iter B.Spill.free lspills
  in
  Fun.protect ~finally:free_all @@ fun () ->
  (* build pass: spill the right side by partition *)
  for j = 0 to t.m - 1 do
    Nra_guard.Guard.tick ();
    if t.next.(j) <> -2 then begin
      let p = part t t.rhash.(j) in
      if p > 0 then B.Spill.add rspills.(p - 1) j
    end
  done;
  Array.iter B.Spill.finish rspills;
  let buckets = ref 0 in
  for p = 0 to nparts - 1 do
    let nb = pow2_at_least 16 psize.(p) in
    t.hbase.(p) <- !buckets;
    t.hmask.(p) <- nb - 1;
    buckets := !buckets + nb
  done;
  t.head <- Scratch.grow t.head ~keep:0 !buckets;
  Array.fill t.head 0 !buckets (-1);
  for j = t.m - 1 downto 0 do
    if t.next.(j) <> -2 && part t t.rhash.(j) = 0 then begin
      let s = slot t t.rhash.(j) in
      t.next.(j) <- t.head.(s);
      t.head.(s) <- j
    end
  done;
  (* probe pass: partition 0 resolved immediately, the rest deferred *)
  for i = 0 to t.n - 1 do
    Nra_guard.Guard.tick ();
    let lrow = left t i in
    off.(i) <- cur.fill;
    len.(i) <- 0;
    if not (Row.has_null_on t.lpos lrow) then begin
      let h = Row.hash_on t.lpos lrow in
      let p = part t h in
      if p = 0 then begin
        push_chain t lrow h t.head.(slot t h) cur;
        len.(i) <- cur.fill - off.(i)
      end
      else B.Spill.add lspills.(p - 1) i
    end
  done;
  Array.iter B.Spill.finish lspills;
  (* [start.(p)]: partition p's match count, then its slice start *)
  let start = Array.make nparts 0 in
  ignore
    (Pool.parallel_chunks ~min_chunk:1 ~n:(nparts - 1)
       (fun ledger ~lo ~hi ->
         for k = lo to hi - 1 do
           Pool.Ledger.tick ledger;
           B.Spill.iter_raw rspills.(k) (fun j ->
               let s = slot t t.rhash.(j) in
               t.next.(j) <- t.head.(s);
               t.head.(s) <- j);
           B.Spill.iter_raw lspills.(k) (fun i ->
               Pool.Ledger.tick ledger;
               let lrow = left t i in
               let h = Row.hash_on t.lpos lrow in
               let c = count_chain t lrow h t.head.(slot t h) 0 in
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
         for k = lo to hi - 1 do
           let at = ref start.(k + 1) in
           B.Spill.iter_raw lspills.(k) (fun i ->
               let lrow = left t i in
               let h = Row.hash_on t.lpos lrow in
               off.(i) <- !at;
               at := !at + len.(i);
               fill_chain_rev t lrow h t.head.(slot t h) dst (!at - 1));
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

let with_matches ~on ?left_sel ?sel left right f =
  let left_arity = Schema.arity (Relation.schema left) in
  let equi, residual = Expr.split_equi ~left_arity on in
  let lrows = Relation.rows left in
  let rows = Relation.rows right in
  let lsel, n =
    match left_sel with
    | Some (s, count) -> (Some s, count)
    | None -> (None, Array.length lrows)
  in
  let sel, m =
    match sel with
    | Some (s, count) -> (Some s, count)
    | None -> (None, Array.length rows)
  in
  Scratch.with_ints n @@ fun off ->
  Scratch.with_ints n @@ fun len ->
  let cur = { buf = Scratch.borrow (max n m); fill = 0 } in
  Fun.protect ~finally:(fun () -> Scratch.release cur.buf) @@ fun () ->
  if equi = [] && trivially_true on then
    probe_cartesian ~m ~sel ~n ~off ~len cur
  else begin
    let grace =
      let build_pages = Nra_storage.Iosim.pages m in
      match Nra_storage.Bufpool.frames () with
      | Some frames when equi <> [] && build_pages > frames ->
          let budget = max 1 (frames - 1) in
          Some (min 64 (max 2 ((build_pages + budget - 1) / budget)))
      | _ -> None
    in
    let nparts = Option.value grace ~default:1 in
    (* with no equi-conjunct every entry shares the empty key's chain *)
    let buckets = if equi = [] then 16 else pow2_at_least 16 m in
    Scratch.with_ints m @@ fun rhash ->
    Scratch.with_ints m @@ fun next ->
    let t =
      {
        rows;
        sel;
        m;
        lrows;
        lsel;
        n;
        lpos = Array.of_list (List.map fst equi);
        rpos = Array.of_list (List.map snd equi);
        residual = (if equi = [] then on else Expr.conj residual);
        all_match = equi <> [] && trivially_true (Expr.conj residual);
        rhash;
        next;
        head = Scratch.borrow buckets;
        nparts;
        hbase = Array.make nparts 0;
        hmask = Array.make nparts (buckets - 1);
      }
    in
    Fun.protect ~finally:(fun () -> Scratch.release t.head) @@ fun () ->
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

let join kind ~on left right =
  with_matches ~on left right (emit_all kind left right)
