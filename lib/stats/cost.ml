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

type acc = {
  mutable seq : float;
  mutable rand : float;
  mutable fetch : float;
}

let pages rows =
  let rpp = float_of_int (max 1 (Iosim.config ()).Iosim.rows_per_page) in
  Float.max 1.0 (Float.ceil (rows /. rpp))

let block_scan_pages (b : A.block) =
  List.fold_left
    (fun acc (bd : A.binding) ->
      acc +. pages (float_of_int (Table.cardinality bd.A.table)))
    0.0 b.A.bindings

(* ---------- nested iteration (Naive; Classical/Magic fallback) ---- *)

let rec naive_child env acc ~outer (c : A.child) =
  let b = c.A.block in
  let probes = if b.A.static then 1.0 else outer in
  (match C.index_cols env b with
  | Some ic ->
      let bd = List.hd b.A.bindings in
      let raw = C.probe_fanout env b ic in
      let table_pages = pages (float_of_int (Table.cardinality bd.A.table)) in
      (* page misses per probe: the probed rows live on about
         pages_per_value distinct pages (clustering statistic), never
         more than the rows themselves or the whole table *)
      let ppv = C.pages_per_value env bd (List.hd ic) ~fallback:table_pages in
      let misses = Float.min raw (Float.min ppv table_pages) in
      acc.rand <- acc.rand +. (probes *. (1.0 +. misses))
  | None ->
      (* several bindings, no equi conjunct or no usable index: rescan
         per probe *)
      acc.seq <- acc.seq +. (probes *. block_scan_pages b));
  let qualifying = probes *. C.fanout env b in
  List.iter (naive_child env acc ~outer:qualifying) b.A.children

let naive_cost env (t : A.t) acc =
  acc.seq <- acc.seq +. block_scan_pages t.A.root;
  let outer = C.block_card env t.A.root in
  List.iter (naive_child env acc ~outer) t.A.root.A.children

(* ---------- classical unnesting ---------- *)

let classical_cost env cat (t : A.t) acc =
  let plan = Nra_exec.Classical.plan cat t in
  acc.seq <- acc.seq +. block_scan_pages t.A.root;
  let outer = C.block_card env t.A.root in
  let rec go ~outer (c : A.child) =
    let b = c.A.block in
    match List.assoc_opt b.A.id plan with
    | Some Nra_exec.Classical.Iterate | None ->
        (* the whole subtree degenerates to nested iteration *)
        naive_child env acc ~outer c
    | Some (Nra_exec.Classical.Semijoin | Nra_exec.Classical.Antijoin) ->
        (* bottom-up reduction: scan once, join in memory *)
        acc.seq <- acc.seq +. block_scan_pages b;
        List.iter (go ~outer:(C.block_card env b)) b.A.children
  in
  List.iter (go ~outer) t.A.root.A.children

(* ---------- magic decorrelation ---------- *)

let magic_cost env (t : A.t) acc =
  acc.seq <- acc.seq +. block_scan_pages t.A.root;
  let outer = C.block_card env t.A.root in
  let rec go ~outer (c : A.child) =
    let b = c.A.block in
    if b.A.self_contained && b.A.equi_correlation <> None then begin
      (* magic set + pushed selection: scans and in-memory hashing *)
      acc.seq <- acc.seq +. block_scan_pages b;
      List.iter (go ~outer:(C.block_card env b)) b.A.children
    end
    else naive_child env acc ~outer c
  in
  List.iter (go ~outer) t.A.root.A.children

(* ---------- the nested relational approach ---------- *)

(* One walk over the plan's linking sites, charging what the executor
   charges: one scan per block, and the per-tuple fetch of every wide
   (outer-join) intermediate at a join+nest site, after the sites its
   standalone reduction runs and before the sites that join against the
   widened frame.  [nest] sees each join+nest site, its nest and its
   wide row count once the site's subtree is priced. *)
let nra_walk ?(nest = fun _ _ ~rows:_ -> ()) env acc (p : Plan.t) =
  let root = p.Plan.analyzed.A.root in
  acc.seq <- acc.seq +. block_scan_pages root;
  (* left-outer-join output: every outer tuple survives (padded when
     unmatched), matched ones multiply by the fan-out *)
  let loj_out ~outer b = outer *. Float.max 1.0 (C.fanout env b) in
  let rec go ~outer (n : Plan.node) =
    let b = n.Plan.child.A.block in
    acc.seq <- acc.seq +. block_scan_pages b;
    let standalone () =
      List.iter (go ~outer:(C.block_card env b)) n.Plan.sub
    in
    match n.Plan.impl with
    | Plan.Shared_set | Plan.Push_down -> standalone ()
    | Plan.Semijoin -> ()
    | Plan.Bottom_up nf ->
        standalone ();
        let rows = loj_out ~outer b in
        acc.fetch <- acc.fetch +. rows;
        nest n nf ~rows
    | Plan.Top_down nf ->
        let rows = loj_out ~outer b in
        acc.fetch <- acc.fetch +. rows;
        List.iter (go ~outer:rows) n.Plan.sub;
        nest n nf ~rows
  in
  List.iter (go ~outer:(C.block_card env root)) p.Plan.roots

(* ---------- assembly ---------- *)

let price (bd : breakdown) =
  let c = Iosim.config () in
  (bd.seq_pages *. c.Iosim.t_seq_ms)
  +. (bd.rand_pages *. c.Iosim.t_rand_ms)
  +. (bd.fetched_rows *. c.Iosim.t_fetch_ms)

let plan_breakdown ?nest env (p : Plan.t) =
  let acc = { seq = 0.0; rand = 0.0; fetch = 0.0 } in
  nra_walk ?nest env acc p;
  { seq_pages = acc.seq; rand_pages = acc.rand; fetched_rows = acc.fetch }

let nra_base = function
  | Nra_original -> Some Nx.original
  | Nra_optimized -> Some Nx.optimized
  | Nra_full -> Some Nx.full
  | Naive | Classical | Magic -> None

let of_breakdown strategy breakdown =
  { strategy; cost_ms = price breakdown; breakdown }

(* [walk] is the NRA strategy's walk when the caller holds it *)
let estimate_in env ?walk strategy =
  let cat = C.catalog env and t = C.analysis env in
  match (strategy, walk) with
  | (Nra_original | Nra_optimized | Nra_full), Some bd ->
      of_breakdown strategy bd
  | _ ->
      let acc = { seq = 0.0; rand = 0.0; fetch = 0.0 } in
      let nra base = nra_walk env acc (Plan.lift ~base t) in
      (match strategy with
      | Naive -> naive_cost env t acc
      | Classical -> classical_cost env cat t acc
      | Magic -> magic_cost env t acc
      | Nra_original -> nra Nx.original
      | Nra_optimized -> nra Nx.optimized
      | Nra_full -> nra Nx.full);
      of_breakdown strategy
        { seq_pages = acc.seq; rand_pages = acc.rand; fetched_rows = acc.fetch }

let estimate cat t strategy = estimate_in (C.make_env cat t) strategy

let estimates ?(walks = []) env =
  List.map (fun s -> estimate_in env ?walk:(List.assoc_opt s walks) s) all
  |> List.stable_sort (fun a b ->
         match Float.compare a.cost_ms b.cost_ms with
         | 0 -> Int.compare (preference a.strategy) (preference b.strategy)
         | n -> n)

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

let report env =
  let cat = C.catalog env and t = C.analysis env in
  let es = estimates env in
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
