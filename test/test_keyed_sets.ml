(* Keyed linking sets: the push-down site (nra-full), the shared set and
   the magic baseline decide a link by probing a chained table over the
   inner rows ({!Exec.Linkeval.with_group}).  This suite holds them to
   the fused or materialized nest (nra-optimized, its shared-set sites
   forced top-down) and to the reference evaluator, CSV for CSV:

   - every link: EXISTS, NOT EXISTS, IN, NOT IN, θ SOME, θ ALL, the raw
     scalar comparison, and the aggregate forms, COUNT of an empty set
     included;
   - every key shape: one column, two columns, a computed outer key,
     and no key (the shared set), with NULL keys on either side and
     duplicate keys (repeated outer probes, several inner rows);
   - every child input: the whole table, base rows through a columnar
     filter's selection vector, rows gathered by a row-at-a-time
     filter, and a child reduced over its own subquery.

   The table itself is checked with every key forced into one bucket
   and with the inner rows read through a selection vector, and
   {!Keyed}'s walks against a linear scan under both NULL rules; the
   scalar two-row error, statements interleaved on the scheduler with
   their buffers borrowed, and what a push-down site allocates per
   inner row are checked last. *)

open Nra
open Test_support
module N = Exec.Nra_exec
module P = Exec.Plan
module L = Exec.Linkeval
module A = Planner.Analyze
module Ref = Test_support.Reference_eval
module Q = Tpch.Queries
module Scheduler = Nra_server.Scheduler

let vf f = Value.Float f
let opt i = if i < 0 then vnull else vi i

(* oo: outer rows 0 and 6 share (k1, k2) = (1, 1), with row 1's key
   between them; row 3's k1 and row 4's k2 are NULL; row 5 meets empty
   sets.  ii: k1 = 1 holds four rows under two k2 values, k1 = 2 two
   rows whose c is NULL, k1 = 3 a NULL k2, two rows a NULL k1, k1 = 0
   one row (the computed key [a - 1] reaches it).  -1 stands for NULL. *)
let catalog () =
  let cat = Catalog.create () in
  Catalog.register cat
    (Table.create ~name:"oo" ~key:[ "oid" ]
       [
         col "oid" Ttype.Int;
         col "k1" Ttype.Int;
         col "k2" Ttype.Int;
         col "a" Ttype.Int;
         col "f" Ttype.Float;
       ]
       (Array.of_list
          (List.map
             (fun (oid, k1, k2, a, f) ->
               [| vi oid; opt k1; opt k2; opt a; f |])
             [
               (0, 1, 1, 2, vf 2.5);
               (1, 1, 2, 3, vf 1.0);
               (2, 2, 1, -1, vnull);
               (3, -1, 1, 1, vf 0.5);
               (4, 3, -1, 5, vf 5.0);
               (5, 4, 1, 0, vf 0.0);
               (6, 1, 1, 2, vf 2.5);
               (7, 5, 2, 3, vf 3.0);
             ])));
  Catalog.register cat
    (Table.create ~name:"ii" ~key:[ "iid" ]
       [
         col "iid" Ttype.Int;
         col "k1" Ttype.Int;
         col "k2" Ttype.Int;
         col "c" Ttype.Int;
         col "g" Ttype.Float;
       ]
       (Array.of_list
          (List.mapi
             (fun iid (k1, k2, c, g) -> [| vi iid; opt k1; opt k2; opt c; g |])
             [
               (1, 1, 2, vf 1.0);
               (1, 1, 3, vf 1e16);
               (1, 2, -1, vnull);
               (1, 2, 1, vf (-1e16));
               (2, 1, -1, vnull);
               (2, 1, -1, vnull);
               (3, -1, 5, vf 5.0);
               (-1, 1, 1, vf 1.0);
               (-1, 2, 7, vf 7.0);
               (5, 2, 3, vf 3.0);
               (0, 1, 9, vf 9.0);
             ])));
  cat

(* the correlation, and whether the subquery is correlated *)
let keys =
  [
    ("ii.k1 = oo.k1", true);
    ("ii.k1 = oo.k1 and ii.k2 = oo.k2", true);
    ("ii.k1 = oo.a - 1", true);
    ("", false);
  ]

(* the child's own filter: none (the whole table), a columnar one (a
   selection vector), a row-at-a-time one (gathered rows), and a
   subquery of its own (reduced standalone) *)
let filters =
  [
    "";
    "ii.iid <> 3";
    "ii.iid + 0 <> 3";
    "exists (select * from ii i2 where i2.iid = ii.iid + 1)";
  ]

let ops = [ "="; "<>"; "<"; ">=" ]

(* [link lhs sub] *)
let links =
  [
    (fun _ sub -> "exists " ^ sub);
    (fun _ sub -> "not exists " ^ sub);
    (fun lhs sub -> Printf.sprintf "%s in %s" lhs sub);
    (fun lhs sub -> Printf.sprintf "%s not in %s" lhs sub);
  ]
  @ List.concat_map
      (fun op ->
        [
          (fun lhs sub -> Printf.sprintf "%s %s some %s" lhs op sub);
          (fun lhs sub -> Printf.sprintf "%s %s all %s" lhs op sub);
        ])
      ops

let aggregates =
  [ "count(*)"; "count(c)"; "sum(c)"; "avg(c)"; "min(c)"; "max(c)" ]

let agg_links =
  [
    (fun lhs sub -> Printf.sprintf "%s in %s" lhs sub);
    (fun lhs sub -> Printf.sprintf "%s not in %s" lhs sub);
    (fun lhs sub -> Printf.sprintf "%s > all %s" lhs sub);
    (fun lhs sub -> Printf.sprintf "%s <= some %s" lhs sub);
    (fun lhs sub -> Printf.sprintf "%s = %s" lhs sub);
    (fun lhs sub -> Printf.sprintf "%s <> %s" lhs sub);
  ]

let where corr filter =
  match List.filter (( <> ) "") [ corr; filter ] with
  | [] -> ""
  | cs -> " where " ^ String.concat " and " cs

let queries () =
  let sub select corr filter =
    Printf.sprintf "(select %s from ii%s)" select (where corr filter)
  in
  let query cond = "select oid from oo where " ^ cond in
  List.concat_map
    (fun (corr, correlated) ->
      List.concat_map
        (fun filter ->
          List.map
            (fun link ->
              (query (link "oo.a" (sub "c" corr filter)), correlated))
            links
          @ List.concat_map
              (fun agg ->
                List.map
                  (fun link ->
                    (query (link "oo.a" (sub agg corr filter)), correlated))
                  agg_links)
              aggregates
          (* COUNT of an empty set is 0; a float sum folds in row order:
             k1 = 1 sums {1, 1e16, NULL, -1e16} to 0 in row order, to 1
             in reverse, and oo row 1 holds 1.0 *)
          @ [
              (query ("0 in " ^ sub "count(*)" corr filter), correlated);
              (query ("oo.f > all " ^ sub "sum(g)" corr filter), correlated);
            ])
        filters)
    keys
  (* the raw scalar comparison needs at most one row per key *)
  @ List.concat_map
      (fun corr ->
        List.map
          (fun op ->
            ( query
                (Printf.sprintf "oo.a %s (select c from ii where %s)" op corr),
              true ))
          ops)
      [
        "ii.iid = oo.oid";
        "ii.iid = oo.oid + 1";
        "ii.iid = oo.oid and ii.k1 = oo.k1";
      ]

(* ---------- the runs ---------- *)

let analyze cat sql =
  match A.analyze_string cat sql with
  | Ok t -> t
  | Error m -> Alcotest.fail (sql ^ ": " ^ m)

let csv_of t run =
  match run () with
  | rel -> Ok (Ref.relation_csv (Exec.Post.apply t.A.output rel))
  | exception Failure m -> Error m

(* nra-full, whose first-level site must be the keyed one *)
let keyed cat sql ~correlated =
  let t = analyze cat sql in
  let plan = P.lift ~base:N.full t in
  let want = if correlated then P.Push_down else P.Shared_set in
  (match plan.P.roots with
  | [ n ] when n.P.impl = want -> ()
  | _ ->
      Alcotest.fail
        (Printf.sprintf "%s: not a %s site" sql (P.impl_to_string want)));
  csv_of t (fun () -> fst (N.run_where ~options:N.full ~directives:plan cat t))

(* nra-optimized, a shared set decided through the nest instead *)
let nested cat sql =
  let t = analyze cat sql in
  let plan = P.lift ~base:N.optimized t in
  let plan =
    List.fold_left
      (fun p (n : P.node) ->
        if n.P.impl = P.Shared_set then
          P.replace p ~id:n.P.child.A.block.A.id
            ~impl:(P.Top_down { P.pipelined = true; assume_sorted = false })
        else p)
      plan (P.nodes plan)
  in
  csv_of t (fun () ->
      fst (N.run_where ~options:N.optimized ~directives:plan cat t))

let magic cat sql =
  let t = analyze cat sql in
  csv_of t (fun () -> Exec.Magic.run_where cat t)

let show = function Ok csv -> csv | Error m -> "error: " ^ m

(* the environment's configuration first, then serial, then two
   domains under an eight-frame budget *)
let configs =
  [
    ("as configured", None);
    ("serial", Some (0, Engine_config.Off));
    ("domains=2 frames=8", Some (2, Pages 8));
  ]

let under config f =
  match config with
  | None -> f ()
  | Some (domains, frames) ->
      with_config (fun c -> { c with domains; frames }) f

let test_differential () =
  let cat = catalog () in
  let cases =
    List.map
      (fun (sql, correlated) ->
        match Ref.sorted_csv cat sql with
        | Ok csv -> (sql, correlated, csv)
        | Error m -> Alcotest.fail (sql ^ ": reference: " ^ m))
      (queries ())
  in
  Alcotest.(check bool) "a non-trivial corpus" true (List.length cases > 600);
  List.iter
    (fun (name, config) ->
      under config @@ fun () ->
      List.iter
        (fun (sql, correlated, expect) ->
          List.iter
            (fun (who, got) ->
              if got <> Ok expect then
                Alcotest.failf
                  "%s: %s disagrees with the reference (%s)\nreference:\n\
                   %s\ngot:\n%s"
                  sql who name expect (show got))
            [
              ("push-down / shared set", keyed cat sql ~correlated);
              ("nra-optimized", nested cat sql);
              ("magic", magic cat sql);
            ])
        cases)
    configs

(* ---------- the table ----------

   Every outer row's verdict from one table, against the same table
   with every key in one bucket, and against the inner rows read
   through a selection vector rather than gathered. *)
let test_table () =
  let cat = catalog () in
  let ii = Table.relation (Catalog.table cat "ii") in
  (* the rows a selection keeps: all but iid 3 *)
  let sel = [| 0; 1; 2; 4; 5; 6; 7; 8; 9; 10 |] in
  let gathered = Relation.gather ii sel (Array.length sel) in
  List.iter
    (fun (sql, _) ->
      let t = analyze cat sql in
      match t.A.root.A.children with
      | [ c ] when c.A.block.A.equi_correlation <> None ->
          let pairs = Option.get c.A.block.A.equi_correlation in
          let outer = Exec.Frame.block_relation ~charge:false t.A.root in
          let lk =
            L.compile ~key_schema:(Relation.schema outer)
              ~wide_schema:(Relation.schema ii) ~with_marker:false c
          in
          let keys = L.inner_keys (Relation.schema ii) pairs in
          let probe = L.outer_keys (Relation.schema outer) pairs in
          let verdicts ?sel ?buckets rows =
            L.with_group ?sel ?buckets lk ~keys ~probe ~tick:false rows
              (fun g -> Array.map (L.decide g) (Relation.rows outer))
          in
          let spread = verdicts (Relation.rows gathered) in
          let one = verdicts ~buckets:1 (Relation.rows gathered) in
          let through =
            verdicts ~sel:(sel, Array.length sel) (Relation.rows ii)
          in
          Array.iteri
            (fun i v ->
              Alcotest.check t3 (sql ^ ": one bucket") v one.(i);
              Alcotest.check t3 (sql ^ ": selection vector") v through.(i))
            spread
      | _ -> ())
    (List.filter snd (queries ()))

(* ---------- the shared table against a linear scan ----------

   Random rows whose two key cells repeat, hold NULL, and cross the
   Int/Float line (Int 1 = Float 1.0); keyed on one column, two in
   either order, or none; read whole or through a random selection
   vector; one bucket (every entry on one chain) or the default count;
   under both NULL rules.  For every probe — a random row, and each
   entry's own — [first]/[next_equal] visit exactly the entries a scan
   finds equal, in row order, and [first_entry], [linked] and
   [distinct] agree with the scan. *)
let gen_cell =
  QCheck.Gen.(
    frequency
      [
        (2, return vnull);
        (5, map vi (int_range 0 3));
        (1, return (vf 1.0));
        (1, return (vf 2.5));
      ])

let gen_row =
  QCheck.Gen.(map (fun (a, b) -> [| a; b |]) (pair gen_cell gen_cell))

let arb_table =
  QCheck.make
    ~print:(fun (rows, sel, pos, probes) ->
      let row r = Format.asprintf "%a" Row.pp r in
      Printf.sprintf "rows [%s] sel %s pos [%s] probes [%s]"
        (String.concat "; " (List.map row rows))
        (match sel with
        | None -> "none"
        | Some s -> String.concat "," (List.map string_of_int s))
        (String.concat "," (Array.to_list (Array.map string_of_int pos)))
        (String.concat "; " (List.map row probes)))
    QCheck.Gen.(
      list_size (int_range 0 40) gen_row >>= fun rows ->
      let n = List.length rows in
      opt (list_size (int_range 0 40) (int_range 0 (max 0 (n - 1))))
      >>= fun sel ->
      (* ascending ids, as a filter's selection vector holds *)
      let sel =
        Option.map
          (fun s -> List.sort_uniq compare (List.filter (fun i -> i < n) s))
          sel
      in
      oneofl [ [| 0 |]; [| 1 |]; [| 0; 1 |]; [| 1; 0 |]; [||] ] >>= fun pos ->
      list_size (int_range 0 10) gen_row >|= fun probes ->
      (rows, sel, pos, probes))

let prop_keyed_vs_scan =
  QCheck.Test.make ~count:500 ~name:"Keyed walks equal a linear scan"
    arb_table (fun (rows, sel, pos, probes) ->
      let rows = Array.of_list rows in
      let sel = Option.map Array.of_list sel in
      let entries =
        match sel with None -> rows | Some s -> Array.map (Array.get rows) s
      in
      let m = Array.length entries in
      let has_null r = Row.has_null_on pos r in
      let ok = ref true in
      List.iter
        (fun nulls ->
          let skip = nulls = `Skip in
          let equal r p =
            (not (skip && (has_null r || has_null p)))
            && Row.equal_on pos r p
          in
          let ids = List.init m Fun.id in
          let scan p = List.filter (fun j -> equal entries.(j) p) ids in
          List.iter
            (fun buckets ->
              Keyed.with_scratch ~nulls
                ?sel:(Option.map (fun s -> (s, Array.length s)) sel)
                ?buckets ~pos rows
              @@ fun t ->
              let rec walk p j =
                if j < 0 then [] else j :: walk p (Keyed.next_equal t pos p j)
              in
              let check p =
                ok := !ok && walk p (Keyed.first t pos p) = scan p
              in
              List.iter check probes;
              Array.iter check entries;
              Array.iteri
                (fun j r ->
                  let expect = match scan r with f :: _ -> f | [] -> -1 in
                  ok := !ok && Keyed.first_entry t j = expect)
                entries;
              let linked = List.filter (fun j -> scan entries.(j) <> []) ids in
              ok :=
                !ok
                && Keyed.length t = m
                && Keyed.linked t = List.length linked
                && Keyed.distinct t
                   = List.length
                       (List.filter
                          (fun j -> List.hd (scan entries.(j)) = j)
                          linked))
            [ Some 1; None ])
        [ `Group; `Skip ];
      !ok)

(* ---------- the scalar two-row error ---------- *)

let test_scalar_error () =
  let cat = catalog () in
  List.iter
    (fun (sql, correlated) ->
      let text = "scalar subquery returned more than one row" in
      (match Ref.sorted_csv cat sql with
      | Error m -> Alcotest.(check string) "the reference's text" text m
      | Ok _ -> Alcotest.fail (sql ^ ": the reference did not fail"));
      List.iter
        (fun (who, got) ->
          if got <> Error text then
            Alcotest.failf "%s: %s gave %s" sql who (show got))
        [
          ("push-down / shared set", keyed cat sql ~correlated);
          ("nra-optimized", nested cat sql);
          ("magic", magic cat sql);
        ])
    [
      ( "select oid from oo where a = (select c from ii where ii.k1 = oo.k1)",
        true );
      ( "select oid from oo where a = (select c from ii where ii.k1 = oo.k1 \
         and ii.k2 = oo.k2)",
        true );
      ("select oid from oo where a = (select c from ii)", false);
    ]

(* ---------- interleaved statements ----------

   The keyed statements spawned as concurrent scheduler tasks at a zero
   quantum, so each yields at every checkpoint while its table is
   borrowed: every task returns the serial result, the borrows of
   several statements are live at once (the high-water count reaches
   twice what one statement reaches), and every buffer is returned. *)
let test_interleaved () =
  let cat = catalog () in
  let sqls =
    Array.of_list
      (List.filteri (fun i _ -> i mod 7 = 0) (List.map fst (queries ())))
  in
  List.iter
    (fun strategy ->
      Scratch.reset_high_water ();
      let serial = Array.map (Nra.query ~strategy cat) sqls in
      let alone = Scratch.high_water () in
      List.iter
        (fun seed ->
          Scratch.reset_high_water ();
          let state = ref seed in
          let chooser ~now:_ ids =
            state := (!state * 1103515245 + 12345) land 0x3fffffff;
            List.nth ids (!state mod List.length ids)
          in
          let sch = Scheduler.create ~quantum_ms:0.0 ~chooser () in
          let results = Array.make (Array.length sqls) None in
          Array.iteri
            (fun i sql ->
              ignore
                (Scheduler.spawn sch (fun () ->
                     results.(i) <- Some (Nra.query ~strategy cat sql))))
            sqls;
          Scheduler.run_until_idle sch;
          Array.iteri
            (fun i r ->
              let same =
                match (serial.(i), r) with
                | Ok a, Some (Ok b) -> Relation.equal_bag a b
                | Error a, Some (Error b) -> a = b
                | _ -> false
              in
              if not same then
                Alcotest.failf
                  "%s (%s, seed %d): interleaved differs from serial" sqls.(i)
                  (Nra.strategy_to_string strategy)
                  seed)
            results;
          let together = Scratch.high_water () in
          if not (alone > 0 && together >= 2 * alone) then
            Alcotest.failf
              "%s (seed %d): tables did not overlap (%d live borrows at \
               once, %d alone)"
              (Nra.strategy_to_string strategy) seed together alone;
          Alcotest.(check int) "every buffer returned" 0 (Scratch.live ()))
        [ 1; 2; 3 ])
    [ Nra.Nra_full; Nra.Magic ]

(* ---------- a push-down site allocates nothing per inner row ----------

   Query 1-JA IN under nra-full is a push-down site over a leaf child
   read through its filter's selection vector.  From scale 0.002 to
   0.004 the inner rows double; a statement's words may grow with the
   outer rows (the outer block is gathered), but by under one word per
   added inner row.  The test sets its own pool size, frame budget and
   faults. *)
let test_alloc () =
  with_config plain @@ fun () ->
  let lo, hi = Q.q1_window ~outer_fraction:0.3 in
  let sql = Q.q1_ja ~link:Q.Ja_in ~date_lo:lo ~date_hi:hi in
  let at scale =
    let cat = Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale } in
    let t = analyze cat sql in
    let plan = P.lift ~base:N.full t in
    (match plan.P.roots with
    | [ { P.impl = P.Push_down; child; _ } ] ->
        let inner =
          Relation.cardinality
            (Exec.Frame.block_relation ~charge:false child.A.block)
        in
        let words =
          words_per 3 (fun _ ->
              ignore (N.run_where ~options:N.full ~directives:plan cat t))
        in
        (inner, words)
    | _ -> Alcotest.fail "Query 1-JA IN is not a push-down site")
  in
  let inner_lo, words_lo = at 0.002 and inner_hi, words_hi = at 0.004 in
  let per_row = (words_hi -. words_lo) /. float_of_int (inner_hi - inner_lo) in
  if per_row >= 1.0 then
    Alcotest.failf "%.0f -> %.0f words over %d -> %d inner rows: %.2f per row"
      words_lo words_hi inner_lo inner_hi per_row

let () =
  Alcotest.run "keyed_sets"
    [
      ( "keyed sets vs reference",
        [
          Alcotest.test_case "every link x key x child input" `Quick
            test_differential;
          Alcotest.test_case "one bucket, selection vector" `Quick test_table;
          (* a fixed seed: the keyed-sets stress point runs this suite
             twice and diffs the logs *)
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 25 |])
            prop_keyed_vs_scan;
          Alcotest.test_case "scalar two-row error" `Quick test_scalar_error;
          Alcotest.test_case "interleaved on the scheduler" `Quick
            test_interleaved;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "a push-down site per inner row" `Quick test_alloc;
        ] );
    ]
