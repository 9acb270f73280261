(* The fused probe–nest–select (a pipelined site whose wide frame feeds
   no grandchild groups the join's match ranges as the probe emits them)
   and the pair frame (a pipelined site whose wide frame does feed its
   child's sites keeps it as position pairs) against the materialized
   nest of the original variant: byte-identical CSV and identical
   fetched-row charges at every pool size and frame budget, faults on.  The corpus covers the Figure 4–9 queries, the
   Query 1-JA links over an outer block read through its filter's
   selection vector, gathered, or unfiltered, the emp/dept subquery
   corpus, and the cases the fusion argument rests on: runs of equal
   outer rows left by σ̄ padding, element order within a group, keep
   expressions that read an outer column, and outer relations that
   arrive key-sorted or out of key order, at leaf and non-leaf sites.
   Then what a statement and a result row allocate, and sites chained
   through the selections they hand on, against the reference
   evaluator. *)

open Nra
open Test_support
module N = Exec.Nra_exec
module A = Planner.Analyze
module I = Nra_storage.Iosim
module Q = Tpch.Queries
module Ref = Test_support.Reference_eval

(* small morsels so even the emp/dept corpus crosses the Domain pool *)
let () =
  Nra.configure { (Nra.config ()) with parallel_threshold = 2; morsel = 4 }

let domains = [ 0; 2 ]
let budgets = [ ("8", Engine_config.Pages 8); ("inf", Off) ]

type outcome = { csv : string; fetched : int; fused : int }

module P = Exec.Plan

(* [plan t] is the plan to run, the options' lift by default *)
let run ?plan cat sql options =
  let t =
    match A.analyze_string cat sql with
    | Ok t -> t
    | Error m -> Alcotest.fail (sql ^ ": " ^ m)
  in
  let directives = Option.map (fun plan -> plan t) plan in
  (* reseeded per run: each run sees the same fault-draw sequence *)
  Fault.configure ~seed:23 ~max_retries:8 0.02;
  I.reset ();
  let rel, st = N.run_where ~options ?directives cat t in
  let out = Exec.Post.apply t.A.output rel in
  {
    csv = Relation.to_csv out;
    fetched = (I.counters ()).I.fetched_rows;
    fused = st.N.fused_sites;
  }

(* a CSV's rows, sorted *)
let lines csv = List.sort compare (String.split_on_char '\n' csv)

(* nra-full's plan with every nest materialized: the same sites —
   semijoins, push-downs and shared sets over the wide frames included —
   so the same rows in the same order *)
let materialized_full t =
  let full = P.lift ~base:N.full t in
  List.fold_left
    (fun plan (n : P.node) ->
      let materialize impl =
        P.replace plan ~id:n.P.child.A.block.A.id ~impl
      in
      match n.P.impl with
      | P.Top_down _ -> materialize (P.Top_down { P.pipelined = false })
      | P.Bottom_up _ -> materialize (P.Bottom_up { P.pipelined = false })
      | P.Shared_set | P.Push_down | P.Semijoin -> plan)
    full (P.nodes full)

(* [must_fuse]: queries whose optimized run must build no wide row at
   [min_fused] sites or more, so the matrix cannot pass vacuously; with
   [~full], nra-full must match its plan with every nest materialized,
   CSV for CSV, and return the original's rows (its shortcuts fetch
   other rows, and a push-down site keeps its outer frame's order) *)
let check_matrix ?(must_fuse = []) ?(min_fused = 1) ?(full = false) cat
    corpus =
  (* two rows per page, so the small tables overflow eight frames and
     the grace join runs its spilled partitions *)
  with_config
    (fun c -> { c with iosim = { c.iosim with I.rows_per_page = 2 } })
    (fun () ->
      List.iter
        (fun d ->
          List.iter
            (fun (budget, frames) ->
              Nra.configure { (Nra.config ()) with domains = d; frames };
              List.iter
                (fun sql ->
                  let where =
                    Printf.sprintf "domains=%d frames=%s: %s" d budget sql
                  in
                  let orig = run cat sql N.original in
                  let opt = run cat sql N.optimized in
                  Alcotest.(check int) ("original never fuses, " ^ where) 0
                    orig.fused;
                  Alcotest.(check string) ("CSV, " ^ where) orig.csv opt.csv;
                  Alcotest.(check int)
                    ("fetched rows, " ^ where)
                    orig.fetched opt.fetched;
                  if List.mem sql must_fuse && opt.fused < min_fused then
                    Alcotest.failf "%d fused sites, %s" opt.fused where;
                  if full then begin
                    let fl = run cat sql N.full in
                    let mat = run ~plan:materialized_full cat sql N.full in
                    Alcotest.(check string)
                      ("nra-full CSV, " ^ where)
                      mat.csv fl.csv;
                    Alcotest.(check int)
                      ("nra-full fetched rows, " ^ where)
                      mat.fetched fl.fetched;
                    Alcotest.(check (list string))
                      ("nra-full rows, " ^ where)
                      (lines orig.csv) (lines fl.csv)
                  end)
                corpus)
            budgets)
        domains)

(* ---------- Figure 4–9 queries and the Query 1-JA links ---------- *)

let tpch_cat =
  lazy (Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.002 })

let figure_corpus =
  let lo, hi = Q.q1_window ~outer_fraction:0.2 in
  let q2 quant =
    Q.q2 ~quant ~size_lo:1 ~size_hi:12 ~availqty_max:2000 ~quantity:25
  in
  let q3 quant exists variant =
    Q.q3 ~quant ~exists ~variant ~size_lo:1 ~size_hi:12 ~availqty_max:2000
      ~quantity:25
  in
  [ Q.q1 ~date_lo:lo ~date_hi:hi; q2 Q.Any; q2 Q.All ]
  @ List.concat_map
      (fun variant ->
        [ q3 Q.Any true variant; q3 Q.All false variant ])
      [ Q.A; Q.B; Q.C ]

let ja_links = [ Q.Ja_in; Q.Ja_not_in; Q.Ja_gt_all; Q.Ja_scalar_eq ]

let ja_corpus =
  let lo, hi = Q.q1_window ~outer_fraction:0.2 in
  List.map (fun link -> Q.q1_ja ~link ~date_lo:lo ~date_hi:hi) ja_links

(* The same links over the two other shapes of the outer block: a
   filter the columnar path cannot compile (a LIKE), so the site gathers
   the outer rows, and no filter at all, so the outer frame is the base
   table itself.  The corpus above reads its outer rows through the
   filter's selection vector. *)
let ja_over ~outer link =
  Printf.sprintf
    "select o_orderkey, o_orderpriority from orders where %s o_totalprice \
     %s (select max(l_extendedprice) from lineitem where l_orderkey = \
     o_orderkey and l_commitdate < l_receiptdate and l_shipdate < \
     l_commitdate)"
    outer (Q.ja_link_str link)

let ja_like_corpus =
  let lo, hi = Q.q1_window ~outer_fraction:0.2 in
  let outer =
    Printf.sprintf
      "o_orderdate >= date '%s' and o_orderdate < date '%s' and o_comment \
       like '%%E%%' and"
      lo hi
  in
  List.map (ja_over ~outer) ja_links

let ja_unfiltered_corpus = List.map (ja_over ~outer:"") ja_links

(* does the root block's filter compile to the columnar subset? *)
let columnar_root cat sql =
  match A.analyze_string cat sql with
  | Error m -> Alcotest.fail m
  | Ok t -> (
      let root = t.A.root in
      match (Exec.Frame.single_binding root, root.A.local) with
      | Some bd, _ :: _ ->
          let base = Table.relation bd.A.table in
          Option.is_some
            (Batch.filter
               (Exec.Frame.to_pred (Relation.schema base) root.A.local)
               (Table.batch bd.A.table))
      | _ -> false)

(* every one of them has a leaf site *)
let test_figures () =
  check_matrix ~must_fuse:figure_corpus (Lazy.force tpch_cat) figure_corpus

let check_outer_shape ~columnar corpus =
  let cat = Lazy.force tpch_cat in
  List.iter
    (fun sql ->
      Alcotest.(check bool) ("columnar outer filter: " ^ sql) columnar
        (columnar_root cat sql))
    corpus;
  check_matrix ~must_fuse:corpus cat corpus

let test_ja () = check_outer_shape ~columnar:true ja_corpus

let test_ja_outer_shapes () =
  check_outer_shape ~columnar:false (ja_like_corpus @ ja_unfiltered_corpus)

(* ---------- the cases the byte-identity argument rests on ---------- *)

(* d ⟵ e ⟵ p: every e row of department 1 leads a project whose hours
   equal its salary; department 1's project floats sum to 0 or 1
   depending on the order they are added in; e is stored out of key
   order, so a site over it must sort its outer rows *)
let edge_catalog () =
  let cat = Catalog.create () in
  Catalog.register cat
    (Table.create ~name:"d" ~key:[ "did" ]
       [ col "did" Ttype.Int; col "v" Ttype.Int ]
       [| [| vi 1; vi 10 |]; [| vi 2; vi 20 |]; [| vi 3; vnull |] |]);
  Catalog.register cat
    (Table.create ~name:"e" ~key:[ "eid" ]
       [ col "eid" Ttype.Int; col "did" Ttype.Int; col "s" Ttype.Int ]
       [|
         [| vi 4; vi 2; vi 8 |];
         [| vi 1; vi 1; vi 5 |];
         [| vi 2; vi 1; vi 6 |];
         [| vi 3; vi 1; vi 7 |];
         [| vi 5; vi 2; vnull |];
         [| vi 6; vnull; vi 9 |];
       |]);
  Catalog.register cat
    (Table.create ~name:"p" ~key:[ "pid" ]
       [
         col "pid" Ttype.Int;
         col "did" Ttype.Int;
         col "eref" Ttype.Int;
         col "h" Ttype.Int;
         col "f" Ttype.Float;
       ]
       [|
         [| vi 1; vi 1; vi 1; vi 5; vf 1.0 |];
         [| vi 2; vi 1; vi 2; vi 6; vf 1e16 |];
         [| vi 3; vi 1; vi 3; vi 7; vf (-1e16) |];
         [| vi 4; vi 2; vi 4; vi 3; vf 2.0 |];
         [| vi 5; vnull; vi 5; vnull; vnull |];
       |]);
  cat

(* Three sibling subqueries under a negated one.  σ̄ at the first (NOT
   IN) pads department 1's three e rows to the same (d, NULL …) row; the
   second, a leaf correlated to d only, sees them as one run of equal
   outer rows, each with matches, and must emit the run once; the third
   site's wide cardinality — and so the fetched-row charge — counts what
   the second emitted. *)
let padded_runs =
  [
    "select did from d where not exists (select * from e where e.did = \
     d.did and e.s not in (select h from p where p.eref = e.eid) and exists \
     (select * from p p2 where p2.did = d.did) and exists (select * from p \
     p3 where p3.did = e.did))";
    "select did from d where v not in (select s from e where e.did = d.did \
     and not exists (select * from p where p.eref = e.eid and p.h = e.s) \
     and s < all (select h + 10 from p p2 where p2.did = d.did) and exists \
     (select * from p p3 where p3.eref = e.eid))";
  ]

(* floating-point sums expose element order: 1 + 1e16 - 1e16 is 0 in
   build order and 1 in reverse *)
let element_order =
  [
    "select did from d where 0.0 = (select sum(f) from p where p.did = \
     d.did)";
    "select did from d where 1.0 = (select sum(f) from p where p.did = \
     d.did)";
  ]

(* the linked attribute reads an outer column: elements need the
   concatenated row *)
let outer_keep =
  [
    "select did from d where v > all (select s + d.v - 9 from e where e.did \
     = d.did)";
    "select eid from e where s in (select h - e.did + 1 from p where p.eref \
     = e.eid)";
  ]

(* the second site of the root block sees the first site's key-sorted
   output, so the fused path skips its outer sort; a site over e must
   sort, or its groups come out in storage order, also when it reads e
   through its filter's selection vector; a filtered root whose first
   site feeds a grandchild gathers its rows instead *)
let outer_order =
  [
    "select eid from e where not exists (select * from p where p.eref = \
     e.eid and p.h > 100)";
    "select eid from e where s > 5 and not exists (select * from p where \
     p.eref = e.eid and p.h > 100)";
    "select did from d where v > 5 and not exists (select * from e where \
     e.did = d.did and s not in (select h from p where p.eref = e.eid))";
    "select did from d where exists (select * from e where e.did = d.did) \
     and v not in (select h from p where p.did = d.did)";
    "select did from d where not exists (select * from e where e.did = \
     d.did and s > 7) and v > some (select h from p where p.did = d.did)";
  ]

let test_edge_cases () =
  let corpus = padded_runs @ element_order @ outer_keep @ outer_order in
  check_matrix ~must_fuse:corpus (edge_catalog ()) corpus

let test_subquery_corpus () =
  check_matrix (emp_dept_catalog ()) subquery_corpus

(* ---------- non-leaf sites: the wide frame as position pairs ----------

   A pipelined site whose child block has children of its own keeps its
   wide frame as (outer, child) positions, and its nest hands on outer
   positions.  Query 3a/3b/3c with ANY and ALL at the middle link and
   EXISTS and NOT EXISTS at the leaf: under ALL the leaf is σ̄ and pads
   the middle (partsupp) block of the pair frame, and under nra-full the
   EXISTS leaf is a semijoin that probes the pair frame.  Each query
   runs with at least two sites that build no wide row. *)
let q3_corpus =
  List.concat_map
    (fun variant ->
      List.concat_map
        (fun quant ->
          List.map
            (fun exists ->
              Q.q3 ~quant ~exists ~variant ~size_lo:1 ~size_hi:12
                ~availqty_max:2000 ~quantity:25)
            [ true; false ])
        [ Q.Any; Q.All ])
    [ Q.A; Q.B; Q.C ]

let test_q3 () =
  check_matrix ~must_fuse:q3_corpus ~min_fused:2 ~full:true
    (Lazy.force tpch_cat) q3_corpus

(* Over d ⟵ e ⟵ p, with e stored out of key order: σ̄ at the middle
   block (the ALL and NOT IN links pad e), a root e whose pair frame
   must be sorted by its outer rows — under nra-full also where its
   only sub-site is a semijoin, which keeps the frame's order — a pair
   site that is itself σ̄ under a NOT EXISTS and pads its own outer pair
   frame, and an outer keep expression over a pair frame. *)
let non_leaf_edges =
  [
    "select did from d where v > all (select s from e where e.did = d.did \
     and not exists (select * from p where p.eref = e.eid and p.h = e.s))";
    "select did from d where v not in (select s from e where e.did = d.did \
     and s > some (select h from p where p.did = d.did))";
    "select eid from e where s < any (select h from p where p.eref = e.eid \
     and not exists (select * from d where d.did = p.did and d.v < e.s))";
    "select eid from e where not exists (select * from p where p.did = \
     e.did and h > all (select v from d where d.did = p.did))";
    "select did from d where not exists (select * from e where e.did = \
     d.did and s in (select h from p where p.eref = e.eid and exists \
     (select * from d d2 where d2.did = p.did and d2.v > e.s)))";
    "select did from d where v > all (select s + d.v - 9 from e where \
     e.did = d.did and exists (select * from p where p.eref = e.eid))";
    "select eid from e where s > any (select h from p where p.did = e.did \
     and exists (select * from d where d.did = p.did and d.v > e.s))";
  ]

(* four blocks, dept → emp → project → emp e3: the project site's pair
   frame has a pair frame as its outer *)
let four_blocks =
  [
    "select dname from dept where budget < any (select salary from emp \
     where emp.dept_id = dept.dept_id and salary > all (select hours from \
     project where project.lead_emp = emp.emp_id and not exists (select * \
     from emp e3 where e3.manager_id = emp.emp_id)))";
    "select dname from dept where exists (select * from emp where \
     emp.dept_id = dept.dept_id and salary < all (select hours from \
     project where project.owner_dept = dept.dept_id and exists (select * \
     from emp e3 where e3.emp_id = project.lead_emp and e3.salary > \
     emp.salary)))";
    "select dname from dept where not exists (select * from emp where \
     emp.dept_id = dept.dept_id and salary not in (select hours from \
     project where project.lead_emp = emp.emp_id and exists (select * \
     from emp e3 where e3.dept_id = dept.dept_id and e3.salary > \
     project.hours)))";
  ]

let test_non_leaf_edges () =
  check_matrix ~must_fuse:non_leaf_edges ~min_fused:2 ~full:true
    (edge_catalog ()) non_leaf_edges;
  check_matrix ~must_fuse:four_blocks ~min_fused:3 ~full:true
    (emp_dept_catalog ()) four_blocks

(* ---------- the fused Query 1-JA site allocates little ----------

   The IN link never holds (no order's total price is the maximum of its
   own line items' prices), so the site returns no rows, and what a
   statement allocates is per statement, not per outer row: the outer
   block is read through its filter's selection vector, the probe and
   the nest through borrowed buffers, and the verdicts box nothing.  So
   a statement allocates the same words at two outer fractions (~600
   and ~1,800 outer rows at scale 0.002), and under 2,000 of them.  The
   test sets its own pool size, frame budget and faults. *)
let test_ja_alloc () =
  let cat = Lazy.force tpch_cat in
  with_config plain @@ fun () ->
  let at outer_fraction =
    let lo, hi = Q.q1_window ~outer_fraction in
    let t =
      match
        A.analyze_string cat (Q.q1_ja ~link:Q.Ja_in ~date_lo:lo ~date_hi:hi)
      with
      | Ok t -> t
      | Error m -> Alcotest.fail m
    in
    let outer =
      Relation.cardinality (Exec.Frame.block_relation ~charge:false t.A.root)
    in
    let out = ref 0 in
    let words =
      words_per 3 (fun _ ->
          let rel, _ = N.run_where ~options:N.optimized cat t in
          out := Relation.cardinality rel)
    in
    Alcotest.(check int) "no output rows" 0 !out;
    (outer, words)
  in
  let outer_lo, words_lo = at 0.2 and outer_hi, words_hi = at 0.6 in
  if outer_hi < 2 * outer_lo then
    Alcotest.failf "outer rows %d and %d are too close" outer_lo outer_hi;
  if words_lo <> words_hi then
    Alcotest.failf "%.0f words per statement over %d outer rows, %.0f over %d"
      words_lo outer_lo words_hi outer_hi;
  if words_hi >= 2000.0 then
    Alcotest.failf "%.0f words per statement" words_hi

(* ---------- a Query 3 site allocates per statement ----------

   Query 3b NOT EXISTS under nra-full: the partsupp site feeds its
   lineitem grandchild, so its wide frame is kept as position pairs in
   borrowed buffers, the lineitem site probes it a row at a time
   through one row buffer, and the partsupp site's nest hands the part
   rows it keeps on as positions.  So no wide row, key row or gathered
   outer row is built: a statement allocates under 3,000 words at two
   part-size windows whose wide frames (~300 and ~760 rows at scale
   0.002) differ by more than 2x, and a wide row costs less than a
   word.  Building the wide rows, the nest's key rows and the gathered
   outer rows cost ~4,100 and ~9,200 words, ~11 per wide row.  The test
   sets its own pool size, frame budget and faults. *)
let test_q3_alloc () =
  let cat = Lazy.force tpch_cat in
  with_config plain @@ fun () ->
  let at size_hi =
    let sql =
      Q.q3 ~quant:Q.Any ~exists:false ~variant:Q.B ~size_lo:1 ~size_hi
        ~availqty_max:199 ~quantity:25
    in
    let t =
      match A.analyze_string cat sql with
      | Ok t -> t
      | Error m -> Alcotest.fail m
    in
    let _, st = N.run_where ~options:N.full cat t in
    Alcotest.(check int) "two sites without a wide row" 2 st.N.fused_sites;
    let words =
      words_per 3 (fun _ -> ignore (N.run_where ~options:N.full cat t))
    in
    (st.N.total_intermediate_rows, words)
  in
  let wide_lo, words_lo = at 12 and wide_hi, words_hi = at 36 in
  if wide_hi < 2 * wide_lo then
    Alcotest.failf "wide rows %d and %d are too close" wide_lo wide_hi;
  List.iter
    (fun (wide, words) ->
      if words >= 3000.0 then
        Alcotest.failf "%.0f words per statement over %d wide rows" words wide)
    [ (wide_lo, words_lo); (wide_hi, words_hi) ];
  let per_row = (words_hi -. words_lo) /. float_of_int (wide_hi - wide_lo) in
  if per_row >= 1.0 then
    Alcotest.failf "%.2f words per wide row (%.0f words for %d, %.0f for %d)"
      per_row words_lo wide_lo words_hi wide_hi

(* ---------- a result row costs one row ----------

   Query 1-JA NOT IN through [N.run]: the fused site hands the outer
   rows it keeps on as positions into the orders table, and
   [Post.apply] projects straight from them, so a result row costs its
   projected row (three words for two columns) and its slot in the
   result array, and nothing else.  The words one more result row
   costs are measured between two outer fractions (~600 and ~1,800
   outer rows at scale 0.002); a site that built its kept rows into an
   array of their own would pay one word more.  The test sets its own
   pool size, frame budget and faults. *)
let test_result_row_alloc () =
  let cat = Lazy.force tpch_cat in
  with_config plain @@ fun () ->
  let at outer_fraction =
    let lo, hi = Q.q1_window ~outer_fraction in
    let t =
      match
        A.analyze_string cat
          (Q.q1_ja ~link:Q.Ja_not_in ~date_lo:lo ~date_hi:hi)
      with
      | Ok t -> t
      | Error m -> Alcotest.fail m
    in
    let _, st = N.run_where ~options:N.optimized cat t in
    Alcotest.(check int) "one fused site" 1 st.N.fused_sites;
    let out = ref 0 in
    let words =
      words_per 3 (fun _ ->
          out := Relation.cardinality (N.run ~options:N.optimized cat t))
    in
    (!out, words)
  in
  let rows_lo, words_lo = at 0.2 and rows_hi, words_hi = at 0.6 in
  if rows_hi < 2 * rows_lo then
    Alcotest.failf "result rows %d and %d are too close" rows_lo rows_hi;
  let per_row = (words_hi -. words_lo) /. float_of_int (rows_hi - rows_lo) in
  if per_row > 4.1 then
    Alcotest.failf
      "%.2f words per result row (%.0f words for %d rows, %.0f for %d)"
      per_row words_lo rows_lo words_hi rows_hi

(* ---------- chained sites ----------

   A σ site hands the next consumer its kept rows as positions; these
   queries chain such frames: two sibling conjuncts at the root (the
   second site reads the first one's output through its selection),
   and three levels with a σ̄ site below a negated one.  Every strategy
   must return the reference evaluator's rows, and charge the simulated
   I/O and the governor's stagings recorded for it (seq/rand pages,
   fetched rows; stagings, staged rows, high-water bytes): the counters
   each strategy charged when every site still built its output rows,
   serial, without a buffer pool, faults or rewrites. *)
let chained =
  [
    ( "select ename from emp where dept_id in (select dept_id from dept \
       where budget > 20) and salary > all (select salary from emp e2 \
       where e2.dept_id = emp.dept_id and e2.emp_id <> emp.emp_id)",
      [
        ("naive", "6/0/0 1/1/8");
        ("classical", "6/0/0 1/1/8");
        ("magic", "6/0/0 1/1/8");
        ("nra-original", "3/0/4 3/9/544");
        ("nra-optimized", "3/0/4 2/5/320");
        ("nra-full", "3/0/4 2/5/320");
        ("hybrid", "3/0/4 2/5/320");
        ("auto", "6/0/0 1/1/8");
      ] );
    ( "select emp_id, salary from emp where exists (select * from project \
       where project.lead_emp = emp.emp_id) and dept_id not in (select \
       owner_dept from project where hours > 20)",
      [
        ("naive", "8/0/0 1/2/32");
        ("classical", "3/0/0 1/2/32");
        ("magic", "3/0/0 1/2/32");
        ("nra-original", "3/0/6 3/14/720");
        ("nra-optimized", "3/0/6 2/8/432");
        ("nra-full", "3/0/0 1/2/32");
        ("hybrid", "3/0/0 1/2/32");
        ("auto", "3/0/0 1/2/32");
      ] );
    ( "select dname from dept where not exists (select * from emp where \
       emp.dept_id = dept.dept_id and salary not in (select hours from \
       project where project.lead_emp = emp.emp_id))",
      [
        ("naive", "8/0/0 1/1/8");
        ("classical", "8/0/0 1/1/8");
        ("magic", "3/0/0 1/1/8");
        ("nra-original", "3/0/12 5/25/1056");
        ("nra-optimized", "3/0/12 3/13/576");
        ("nra-full", "3/0/0 1/1/8");
        ("hybrid", "3/0/0 1/1/8");
        ("auto", "3/0/0 1/1/8");
      ] );
    ( "select distinct dept_id from emp where salary < some (select budget \
       from dept where dept.dept_id = emp.dept_id and not exists (select * \
       from project where project.owner_dept = dept.dept_id and hours > \
       20)) and manager_id is not null",
      [
        ("naive", "4/5/0 1/1/8");
        ("classical", "3/0/0 1/1/8");
        ("magic", "3/0/0 1/1/8");
        ("nra-original", "3/0/8 5/13/672");
        ("nra-optimized", "3/0/8 3/7/384");
        ("nra-full", "3/0/0 1/1/8");
        ("hybrid", "3/0/0 1/1/8");
        ("auto", "3/0/0 1/1/8");
      ] );
  ]

let test_chained () =
  let cat = emp_dept_catalog () in
  with_config (fun c -> { (plain c) with rules = [] }) @@ fun () ->
  List.iter
    (fun (sql, expected) ->
      let reference =
        match Ref.sorted_csv cat sql with
        | Ok csv -> csv
        | Error m -> Alcotest.fail (sql ^ ": reference: " ^ m)
      in
      List.iter
        (fun (name, strategy) ->
          I.reset ();
          let rows =
            match Nra.query ~strategy cat sql with
            | Ok rel -> Ref.relation_csv rel
            | Error m -> Alcotest.failf "%s: %s: %s" name sql m
          in
          let c = I.counters () and g = Nra_storage.Governor.stats () in
          Alcotest.(check string) (name ^ " rows: " ^ sql) reference rows;
          Alcotest.(check string)
            (name ^ " charges: " ^ sql)
            (List.assoc name expected)
            (Printf.sprintf "%d/%d/%d %d/%d/%d" c.I.seq_pages c.I.rand_pages
               c.I.fetched_rows g.Nra_storage.Governor.stagings
               g.Nra_storage.Governor.staged_rows
               g.Nra_storage.Governor.high_water_bytes))
        Nra.strategies)
    chained

let () =
  Alcotest.run "fused"
    [
      ( "fused vs materialized",
        [
          Alcotest.test_case "figure 4-9 queries" `Quick test_figures;
          Alcotest.test_case "query 1-JA links" `Quick test_ja;
          Alcotest.test_case "query 1-JA, gathered and unfiltered outer"
            `Quick test_ja_outer_shapes;
          Alcotest.test_case "padded runs, outer keep, presorted" `Quick
            test_edge_cases;
          Alcotest.test_case "subquery corpus" `Quick test_subquery_corpus;
          Alcotest.test_case "query 3, non-leaf sites" `Quick test_q3;
          Alcotest.test_case "non-leaf padding, order and four blocks"
            `Quick test_non_leaf_edges;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "a Query 1-JA site allocates per statement"
            `Quick test_ja_alloc;
          Alcotest.test_case "a Query 3 site allocates per statement" `Quick
            test_q3_alloc;
          Alcotest.test_case "a result row costs one row" `Quick
            test_result_row_alloc;
        ] );
      ( "chained sites",
        [ Alcotest.test_case "against the reference" `Quick test_chained ] );
    ]
