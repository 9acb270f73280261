(* Out-of-core execution: buffer-pool unit tests and the
   spill-equivalence matrix.

   The matrix is the PR's acceptance bar: every strategy, over the
   whole subquery corpus, must return byte-identical CSV at a tiny
   frame budget (grace join engaged), at the paper's
   32 MB working-memory point, and unbounded — all with fault
   injection on, against a pool-disabled reference.  The page size is
   shrunk so the six-row fixtures genuinely overflow the tiny budget. *)

open Nra
module B = Nra.Bufpool
module I = Nra.Iosim

let () = Fault.disable ()

let with_pool ?(rows_per_page = 2) frames f =
  Test_support.with_config
    (fun c -> { c with iosim = { c.iosim with I.rows_per_page }; frames })
  @@ fun () ->
  I.reset ();
  f ()

(* ---------- buffer-pool unit tests ---------- *)

let test_lru_eviction () =
  with_pool (Pages 2) (fun () ->
      B.read (B.owner "t") 0;
      B.read (B.owner "t") 1;
      B.read (B.owner "t") 0;
      (* miss: the budget is full, page 1 is the cold victim *)
      B.read (B.owner "t") 2;
      Alcotest.(check bool) "recent page resident" true
        (B.resident (B.owner "t") 0);
      Alcotest.(check bool) "cold page evicted" false
        (B.resident (B.owner "t") 1);
      B.read (B.owner "t") 0;
      B.read (B.owner "t") 1;
      let s = B.stats () in
      Alcotest.(check int) "hits" 2 s.B.hits;
      Alcotest.(check int) "misses" 4 s.B.misses;
      Alcotest.(check int) "evictions" 2 s.B.evictions;
      Alcotest.(check int) "clean victims never write back" 0 s.B.writebacks;
      (* every miss paid exactly one sequential page *)
      Alcotest.(check int) "misses charged" 4 (I.counters ()).I.seq_pages)

let test_pin_blocks_eviction () =
  with_pool (Pages 2) (fun () ->
      B.pin (B.owner "t") 0;
      B.read (B.owner "t") 1;
      (* page 0 is the LRU victim but pinned: 1 must go instead *)
      B.read (B.owner "t") 2;
      Alcotest.(check bool) "pinned page survives" true
        (B.resident (B.owner "t") 0);
      Alcotest.(check bool) "unpinned page evicted" false
        (B.resident (B.owner "t") 1);
      B.unpin (B.owner "t") 0;
      B.read (B.owner "t") 3;
      Alcotest.(check bool) "unpinned page evictable" false
        (B.resident (B.owner "t") 0))

let test_dirty_writeback () =
  with_pool (Pages 1) (fun () ->
      (* write-behind: the write itself is free... *)
      B.write (B.owner "t") 0;
      Alcotest.(check int) "blind write uncharged" 0
        (I.counters ()).I.seq_pages;
      (* ...until eviction flushes it: one page out + one page in *)
      B.read (B.owner "t") 1;
      let s = B.stats () in
      Alcotest.(check int) "dirty victim written back" 1 s.B.writebacks;
      Alcotest.(check int) "writeback + miss charged" 2
        (I.counters ()).I.seq_pages;
      (* dropping a dead dirty page costs nothing *)
      B.write (B.owner "t") 2;
      B.drop (B.owner "t") 2;
      Alcotest.(check int) "drop skips the writeback" 2
        (I.counters ()).I.seq_pages;
      Alcotest.(check bool) "dropped page gone" false
        (B.resident (B.owner "t") 2))

let test_spill_roundtrip () =
  with_pool ~rows_per_page:3 (Pages 2) (fun () ->
      let positions = [| 5; 0; 7; 2; 2; 6; 1; 3 |] in
      let sp = B.Spill.create (Array.make 8 0) ~base:0 in
      Array.iter (B.Spill.add sp) positions;
      B.Spill.finish sp;
      Alcotest.(check int) "length" 8 (B.Spill.length sp);
      let got = ref [] in
      B.Spill.iter sp (fun i -> got := i :: !got);
      Alcotest.(check (array int))
        "positions round-trip in order" positions
        (Array.of_list (List.rev !got));
      let s = B.stats () in
      Alcotest.(check int) "one partition" 1 s.B.spilled_partitions;
      (* ceil(8/3) = 3 pages *)
      Alcotest.(check int) "pages" 3 s.B.spilled_pages;
      (* two frames: writing page 2 evicts dirty page 0, and each page
         read back evicts the next one, so every page is written back
         once and paged in once *)
      Alcotest.(check int) "writebacks" 3 s.B.writebacks;
      Alcotest.(check int) "misses" 6 s.B.misses;
      B.Spill.free sp)

let test_reset_hooks () =
  with_pool (Pages 4) (fun () ->
      B.read (B.owner "t") 0;
      Alcotest.(check bool) "resident before reset" true
        (B.resident (B.owner "t") 0);
      (* cold measurements reset the I/O model; residency must go too *)
      I.reset ();
      Alcotest.(check bool) "Iosim.reset clears residency" false
        (B.resident (B.owner "t") 0);
      Alcotest.(check int) "stats cleared" 0 (B.stats ()).B.misses;
      Alcotest.(check bool) "budget survives" true (B.frames () = Some 4))

let test_disabled_is_free () =
  B.set_frames None;
  I.reset ();
  B.read (B.owner "t") 0;
  B.write (B.owner "t") 1;
  B.pin (B.owner "t") 2;
  B.unpin (B.owner "t") 2;
  Alcotest.(check int) "disabled pool never charges" 0
    (I.counters ()).I.seq_pages;
  Alcotest.(check int) "disabled pool never counts" 0 (B.stats ()).B.misses

(* the page a pin reads in is pinned before the pool enforces its
   budget: with every other frame pinned it over-commits instead of
   evicting that page *)
let test_pin_overcommit () =
  with_pool (Pages 1) (fun () ->
      let t = B.owner "t" in
      B.pin t 0;
      B.pin t 1;
      Alcotest.(check bool) "first pinned page resident" true (B.resident t 0);
      Alcotest.(check bool) "second pinned page resident" true
        (B.resident t 1);
      let s = B.stats () in
      Alcotest.(check int) "two misses" 2 s.B.misses;
      Alcotest.(check int) "nothing evicted" 0 s.B.evictions;
      (* unpinned, both are evictable again: the next miss evicts down
         to the budget, least recent first *)
      B.unpin t 0;
      B.unpin t 1;
      B.read t 2;
      Alcotest.(check int) "back to the budget" 2 (B.stats ()).B.evictions;
      Alcotest.(check bool) "newest page kept" true (B.resident t 2))

(* ---------- the bookkeeping allocates nothing ----------

   Every page access of an out-of-core run goes through these paths.
   Each case sets its own frame budget and turns faults off, so it
   holds at every CI stress point; a warm-up round first grows the
   frame arrays to their working size. *)

let check_no_alloc name per_op =
  Alcotest.(check bool) (name ^ " allocates nothing") true (per_op < 0.01)

let test_bufpool_no_alloc () =
  with_pool (Pages 4) (fun () ->
      Fault.disable ();
      let t = B.owner "t" and n = 100_000 in
      B.read t 0;
      check_no_alloc "a hit"
        (Test_support.words_per n (fun _ -> B.read t 0));
      (* 64 pages cycled through 4 frames: every access misses *)
      check_no_alloc "a miss"
        (Test_support.words_per n (fun i -> B.read t (1 + (i mod 64))));
      check_no_alloc "a dirty writeback"
        (Test_support.words_per n (fun i ->
             B.write t (100 + (i mod 64))));
      check_no_alloc "a pin/unpin pair"
        (Test_support.words_per n (fun i ->
             let p = 200 + (i mod 64) in
             B.pin t p;
             B.unpin t p));
      let s = B.stats () in
      Alcotest.(check bool) "misses, evictions, writebacks all ran" true
        (s.B.misses >= 3 * n && s.B.evictions >= 2 * n
        && s.B.writebacks >= n / 2);
      let buf = Array.make (n + 1) 0 in
      let sp = B.Spill.create buf ~base:0 in
      check_no_alloc "Spill.add"
        (Test_support.words_per n (fun i -> B.Spill.add sp i));
      Alcotest.(check bool) "spill pages written" true
        ((B.stats ()).B.spilled_pages >= n / 2);
      B.Spill.free sp)

(* ---------- spills hold positions, not copies ----------

   Every spill path hands back the caller's own rows: a spill partition
   records positions into the array the operator already holds.  Two
   frames at two rows per page put each fixture over budget. *)

let int_rel names rows =
  Relation.make
    (Schema.of_columns
       (List.map (fun n -> Schema.column ~table:"t" n Ttype.Int) names))
    (Array.map
       (Array.map (function None -> Value.Null | Some i -> Value.Int i))
       rows)

(* each left row's match positions, copied out of the borrowed
   vectors *)
let match_positions ~on left right =
  Nra.Algebra.Join.with_matches ~on left right (fun m ->
      Array.init (Relation.cardinality left) (fun i ->
          Array.sub m.Nra.Algebra.Join.pos m.Nra.Algebra.Join.off.(i)
            m.Nra.Algebra.Join.len.(i)))

let test_grace_matches () =
  let left =
    int_rel [ "a"; "b" ]
      (Array.init 12 (fun i ->
           [| (if i = 7 then None else Some (i mod 5)); Some i |]))
  in
  let right =
    int_rel [ "c"; "d" ]
      (Array.init 12 (fun i ->
           [| (if i = 3 then None else Some (i mod 4)); Some (100 + i) |]))
  in
  let on = Expr.Cmp (Three_valued.Eq, Expr.Col 0, Expr.Col 2) in
  let reference = match_positions ~on left right in
  with_pool (Pages 2) (fun () ->
      let got = match_positions ~on left right in
      Alcotest.(check bool) "grace path spilled" true
        ((B.stats ()).B.spilled_partitions > 0);
      Alcotest.(check (array (array int)))
        "same positions as in memory" reference got;
      Alcotest.(check bool) "every position is a right row" true
        (Array.for_all
           (Array.for_all (fun p -> p >= 0 && p < Relation.cardinality right))
           got))

(* Pages are keyed by the catalog table a binding reads, not by its
   alias: at 4,096 frames a table read once is read again for free
   under an alias, while a CTE that shadows its name is a
   statement-local relation with no pages in the pool. *)
let test_pages_keyed_by_table () =
  let cat =
    Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.002 }
  in
  with_pool ~rows_per_page:(I.config ()).I.rows_per_page (Pages 4096)
    (fun () ->
      let run sql =
        let s0 = B.stats () in
        (match Nra.query ~strategy:Nra.Nra_optimized cat sql with
        | Ok _ -> ()
        | Error m -> Alcotest.fail (sql ^ ": " ^ m));
        let s = B.stats () in
        (s.B.hits - s0.B.hits, s.B.misses - s0.B.misses)
      in
      let _, pages = run "select count(*) from orders" in
      Alcotest.(check bool) "orders read into the pool" true (pages > 0);
      Alcotest.(check (pair int int))
        "an alias hits the cached pages" (pages, 0)
        (run "select count(*) from orders o");
      let hits, _ =
        run
          "with orders as (select c_custkey from customer) select count(*) \
           from orders"
      in
      Alcotest.(check int) "a CTE named orders hits no table's pages" 0 hits)

let test_staged_no_copy () =
  let rel = int_rel [ "a" ] (Array.init 12 (fun i -> [| Some i |])) in
  with_pool (Pages 2) (fun () ->
      (* [f] reads the staged rows in place, once, after the
         round-trip *)
      let runs = ref 0 in
      let pages_seen = ref 0 in
      let staged =
        Governor.with_staged ~rows:(Relation.cardinality rel) ~width:1
          (fun () ->
            incr runs;
            pages_seen := (B.stats ()).B.spilled_pages;
            Relation.rows rel)
      in
      Alcotest.(check int) "staging spilled" 1
        (Governor.stats ()).Governor.spilled_stagings;
      Alcotest.(check int) "six pages written" 6 (B.stats ()).B.spilled_pages;
      Alcotest.(check int) "f runs once, after the round-trip" 6 !pages_seen;
      Alcotest.(check int) "f runs once" 1 !runs;
      Alcotest.(check bool) "f sees the input rows themselves" true
        (Array.for_all2 ( == ) staged (Relation.rows rel)))

(* ---------- the spill-equivalence matrix ---------- *)

let budgets =
  [
    ("tiny", Engine_config.Pages 2);
    ("paper-32mb", Mb 32.0);
    ("unbounded", Off);
  ]

let outcome cat strategy sql =
  match Nra.query ~strategy cat sql with
  | Ok rel -> "ok:" ^ Relation.to_csv rel
  | Error m -> "error:" ^ m

let test_spill_equivalence () =
  let spilled = ref 0 in
  (* two rows per page so six-row tables overflow a two-frame budget *)
  Test_support.with_config (fun c ->
      { c with iosim = { c.iosim with I.rows_per_page = 2 } })
  @@ fun () ->
  Fault.configure ~seed:23 0.02;
  let frames_at frames = Nra.configure { (Nra.config ()) with frames } in
  let cat = Test_support.emp_dept_catalog () in
  List.iter
    (fun sql ->
      List.iter
        (fun strategy ->
          frames_at Off;
          let reference = outcome cat strategy sql in
          List.iter
            (fun (bname, frames) ->
              frames_at frames;
              let got = outcome cat strategy sql in
              spilled := !spilled + (B.stats ()).B.spilled_partitions;
              Alcotest.(check string)
                (Printf.sprintf "%s / %s / %s"
                   (Nra.strategy_to_string strategy)
                   bname sql)
                reference got)
            budgets)
        Test_support.all_strategies)
    Test_support.subquery_corpus;
  (* the matrix must actually exercise the spill paths *)
  Alcotest.(check bool) "some partitions spilled" true (!spilled > 0)

let () =
  Alcotest.run "outofcore"
    [
      ( "bufpool",
        [
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "pin blocks eviction" `Quick
            test_pin_blocks_eviction;
          Alcotest.test_case "dirty writeback" `Quick test_dirty_writeback;
          Alcotest.test_case "spill round-trip" `Quick test_spill_roundtrip;
          Alcotest.test_case "reset hooks" `Quick test_reset_hooks;
          Alcotest.test_case "disabled is free" `Quick test_disabled_is_free;
          Alcotest.test_case "pin over-commits when all else is pinned"
            `Quick test_pin_overcommit;
          Alcotest.test_case "bookkeeping allocates nothing" `Quick
            test_bufpool_no_alloc;
          Alcotest.test_case "pages keyed by table, not alias" `Quick
            test_pages_keyed_by_table;
        ] );
      ( "no copy",
        [
          Alcotest.test_case "grace join matches are right rows" `Quick
            test_grace_matches;
          Alcotest.test_case "spilled staging passes its rows" `Quick
            test_staged_no_copy;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "strategies x budgets x faults" `Quick
            test_spill_equivalence;
        ] );
    ]
