open Nra_storage
open Nra_planner
module A = Analyze
module C = Cardinality
module Plan = Nra_exec.Plan
module Nx = Nra_exec.Nra

type strategy =
  | Naive
  | Classical
  | Magic
  | Nra_original
  | Nra_optimized
  | Nra_full

let all = [ Naive; Classical; Magic; Nra_original; Nra_optimized; Nra_full ]

let to_string = function
  | Naive -> "naive"
  | Classical -> "classical"
  | Magic -> "magic"
  | Nra_original -> "nra-original"
  | Nra_optimized -> "nra-optimized"
  | Nra_full -> "nra-full"

(* CPU costs Iosim cannot see: classical's plain joins beat the nested
   operators, pipelined NRA beats materialized, magic pays for its
   magic set, naive interprets per tuple *)
let preference = function
  | Classical -> 0
  | Nra_full -> 1
  | Magic -> 2
  | Nra_optimized -> 3
  | Nra_original -> 4
  | Naive -> 5

type breakdown = {
  seq_pages : float;
  rand_pages : float;
  fetched_rows : float;
}

type estimate = {
  strategy : strategy;
  cost_ms : float;
  breakdown : breakdown;
}

(* The estimators' accumulator: one per estimate or pricing context,
   reset before each walk.  [sum] is scratch.  All fields are floats,
   so they are stored unboxed and the walks allocate no float. *)
type tally = {
  mutable seq : float;
  mutable rand : float;
  mutable fetch : float;
  mutable sum : float;
}

let tally () = { seq = 0.0; rand = 0.0; fetch = 0.0; sum = 0.0 }

let reset t =
  t.seq <- 0.0;
  t.rand <- 0.0;
  t.fetch <- 0.0

let breakdown t =
  { seq_pages = t.seq; rand_pages = t.rand; fetched_rows = t.fetch }

let[@inline] pages rows =
  let rpp = float_of_int (max 1 (Iosim.config ()).Iosim.rows_per_page) in
  Float.max 1.0 (Float.ceil (rows /. rpp))

(* [t.sum]: the pages of one scan of each of the block's bindings *)
let rec add_binding_pages t = function
  | [] -> ()
  | (bd : A.binding) :: rest ->
      t.sum <- t.sum +. pages (float_of_int (Table.cardinality bd.A.table));
      add_binding_pages t rest

let scan_pages t (b : A.block) =
  t.sum <- 0.0;
  add_binding_pages t b.A.bindings

(* ---------- nested iteration (Naive; Classical/Magic fallback) ---- *)

let rec naive_child env t ~outer (c : A.child) =
  let b = c.A.block in
  let probes = if b.A.static then 1.0 else outer in
  let ip = C.index_probe env b in
  (match ip.C.cols with
  | _ :: _ ->
      let bd = List.hd b.A.bindings in
      let table_pages = pages (float_of_int (Table.cardinality bd.A.table)) in
      (* page misses per probe: the probed rows live on about
         pages_per_value distinct pages (clustering statistic), never
         more than the rows themselves or the whole table *)
      let ppv =
        if ip.C.pages_per_value > 0.0 then ip.C.pages_per_value
        else table_pages
      in
      let misses = Float.min ip.C.rows (Float.min ppv table_pages) in
      t.rand <- t.rand +. (probes *. (1.0 +. misses))
  | [] ->
      (* several bindings, no equi conjunct or no usable index: rescan
         per probe *)
      scan_pages t b;
      t.seq <- t.seq +. (probes *. t.sum));
  naive_children env t ~outer:(probes *. C.fanout env b) b.A.children

and naive_children env t ~outer = function
  | [] -> ()
  | c :: rest ->
      naive_child env t ~outer c;
      naive_children env t ~outer rest

(* every strategy starts with one scan of the root block *)
let root_scan t (root : A.block) =
  scan_pages t root;
  t.seq <- t.seq +. t.sum

let naive_cost env (r : A.block) t =
  root_scan t r;
  naive_children env t ~outer:(C.block_card env r) r.A.children

(* ---------- classical unnesting ---------- *)

let rec classical_children env an t ~outer = function
  | [] -> ()
  | (c : A.child) :: rest ->
      let b = c.A.block in
      (match Nra_exec.Classical.choose an c with
      | Nra_exec.Classical.Iterate ->
          (* the whole subtree degenerates to nested iteration *)
          naive_child env t ~outer c
      | Nra_exec.Classical.Semijoin | Nra_exec.Classical.Antijoin ->
          (* bottom-up reduction: scan once, join in memory *)
          scan_pages t b;
          t.seq <- t.seq +. t.sum;
          classical_children env an t ~outer:(C.block_card env b)
            b.A.children);
      classical_children env an t ~outer rest

let classical_cost env (an : A.t) t =
  root_scan t an.A.root;
  classical_children env an t
    ~outer:(C.block_card env an.A.root)
    an.A.root.A.children

(* ---------- magic decorrelation ---------- *)

let rec magic_children env t ~outer = function
  | [] -> ()
  | (c : A.child) :: rest ->
      let b = c.A.block in
      if b.A.self_contained && b.A.equi_correlation <> None then begin
        (* magic set + pushed selection: scans and in-memory hashing *)
        scan_pages t b;
        t.seq <- t.seq +. t.sum;
        magic_children env t ~outer:(C.block_card env b) b.A.children
      end
      else naive_child env t ~outer c;
      magic_children env t ~outer rest

let magic_cost env (r : A.block) t =
  root_scan t r;
  magic_children env t ~outer:(C.block_card env r) r.A.children

(* ---------- the nested relational approach ---------- *)

(* One walk over the sites of a plan, given by its signature
   ({!Plan.signature}): [sg] holds site [i]'s impl, and the sites are
   the statement's children in pre-order.  It charges what the
   executor charges: one scan per block, and the per-tuple fetch of
   every wide (outer-join) intermediate at a join+nest site, after the
   sites its standalone reduction runs and before the sites that join
   against the widened frame.  Returns the site after [cs]'s subtrees. *)
(* left-outer-join output: every outer tuple survives (padded when
   unmatched), matched ones multiply by the fan-out *)
let[@inline] loj_rows env ~outer b = outer *. Float.max 1.0 (C.fanout env b)

let rec nra_sites env t sg i ~outer = function
  | [] -> i
  | (c : A.child) :: rest ->
      let b = c.A.block in
      scan_pages t b;
      t.seq <- t.seq +. t.sum;
      let next =
        match Plan.of_code (Char.code (Bytes.get sg i)) with
        | Plan.Shared_set | Plan.Push_down -> standalone env t sg i b
        | Plan.Semijoin -> Plan.count_sites (i + 1) b.A.children
        | Plan.Bottom_up _ ->
            let next = standalone env t sg i b in
            t.fetch <- t.fetch +. loj_rows env ~outer b;
            next
        | Plan.Top_down _ ->
            let rows = loj_rows env ~outer b in
            t.fetch <- t.fetch +. rows;
            nra_sites env t sg (i + 1) ~outer:rows b.A.children
      in
      nra_sites env t sg next ~outer rest

(* a site's subtree reduced standalone, where it is outermost *)
and standalone env t sg i (b : A.block) =
  nra_sites env t sg (i + 1) ~outer:(C.block_card env b) b.A.children

(* ---------- assembly ---------- *)

let price (bd : breakdown) =
  let c = Iosim.config () in
  (bd.seq_pages *. c.Iosim.t_seq_ms)
  +. (bd.rand_pages *. c.Iosim.t_rand_ms)
  +. (bd.fetched_rows *. c.Iosim.t_fetch_ms)

let walk env sg t =
  reset t;
  let root = (C.analysis env).A.root in
  root_scan t root;
  ignore
    (nra_sites env t sg 0 ~outer:(C.block_card env root) root.A.children
      : int)

let nra_base = function
  | Nra_original -> Some Nx.original
  | Nra_optimized -> Some Nx.optimized
  | Nra_full -> Some Nx.full
  | Naive | Classical | Magic -> None

let of_breakdown strategy breakdown =
  { strategy; cost_ms = price breakdown; breakdown }

let estimate_in env ?walk:bd strategy =
  match (nra_base strategy, bd) with
  | Some _, Some bd -> of_breakdown strategy bd
  | base, _ ->
      let an = C.analysis env and t = tally () in
      (match base with
      | Some base -> walk env (Plan.signature (Plan.lift ~base an)) t
      | None when strategy = Naive -> naive_cost env an.A.root t
      | None when strategy = Classical -> classical_cost env an t
      | None -> magic_cost env an.A.root t);
      of_breakdown strategy (breakdown t)

let estimate cat t strategy = estimate_in (C.make_env cat t) strategy

let compare a b =
  match Float.compare a.cost_ms b.cost_ms with
  | 0 -> Int.compare (preference a.strategy) (preference b.strategy)
  | n -> n

(* ---------- budget-aware selection ---------- *)

(* [fetched_rows] doubles as the intermediate-row proxy: the NRA
   estimators charge it per wide-intermediate tuple, mirroring the
   executor's [record_intermediate] (which charges the guard's row
   budget and the fetch cost from the same count). *)
let fits ~remaining_io_ms ~remaining_rows e =
  (match remaining_io_ms with
  | Some limit -> e.cost_ms <= limit
  | None -> true)
  &&
  match remaining_rows with
  | Some limit -> e.breakdown.fetched_rows <= float_of_int limit
  | None -> true

let pick ~remaining_io_ms ~remaining_rows = function
  | [] -> invalid_arg "Cost.pick: no estimates"
  | cheapest :: _ as es -> (
      match List.find_opt (fits ~remaining_io_ms ~remaining_rows) es with
      | Some e -> e
      | None -> cheapest)

let analyzed_tables cat (t : A.t) =
  List.sort_uniq String.compare
    (List.filter_map (fun (_, bd) -> bd.A.source) t.A.by_uid)
  |> List.map (fun name -> (name, Catalog.stats cat name <> None))

let report env es =
  let cat = C.catalog env and t = C.analysis env in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-14s %12s %12s %12s %12s\n" "strategy" "est(ms)"
       "seq pages" "rand pages" "fetched");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-14s %12.1f %12.0f %12.0f %12.0f\n"
           (to_string e.strategy) e.cost_ms e.breakdown.seq_pages
           e.breakdown.rand_pages e.breakdown.fetched_rows))
    es;
  Buffer.add_string buf
    (Printf.sprintf "auto picks: %s\n" (to_string (List.hd es).strategy));
  let missing =
    analyzed_tables cat t
    |> List.filter_map (fun (n, ok) -> if ok then None else Some n)
  in
  if missing <> [] then
    Buffer.add_string buf
      (Printf.sprintf
         "note: no fresh statistics for %s — using defaults (run ANALYZE)\n"
         (String.concat ", " missing));
  Buffer.contents buf
