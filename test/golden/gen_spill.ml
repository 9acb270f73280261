(* Prints the spill-accounting golden diffed by this directory's runtest
   rule: for the emp/dept subquery corpus (two rows per page, so the
   six-row tables overflow the budget) and the four Query 1-JA links
   (TPC-H scale 0.002, default page size), under every strategy at
   frame budgets {2, 8} with fault injection on, one line per run:

   - the result's digest (CSV, or the error text);
   - [Bufpool.stats]: hits, misses, evictions, writebacks, spilled
     partitions and pages;
   - [Iosim.counters]: sequential pages, random pages, fetched rows;
   - [Governor.stats]: spilled stagings and spilled rows;
   - the fault injector's draws, injected faults and retries.

   Every global the counts depend on (page size, rewrite rules, fault
   seed, frame budget) is set here, so the output depends only on the
   engine, not on the environment the suite runs under. *)

open Nra
module B = Nra.Bufpool
module I = Nra.Iosim
module G = Nra.Governor
module Q = Tpch.Queries

let one_line sql =
  String.split_on_char '\n' sql
  |> List.map String.trim
  |> List.filter (( <> ) "")
  |> String.concat " "

let run cat ~rows_per_page sql =
  Printf.printf "=== %s\n" (one_line sql);
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun frames ->
          let saved = I.config () in
          I.set_config { saved with I.rows_per_page };
          B.set_frames (Some frames);
          Fault.configure ~seed:23 0.02;
          I.reset ();
          let draws0 = Fault.draws () in
          let outcome =
            match Nra.query ~strategy cat sql with
            | Ok rel -> Relation.to_csv rel
            | Error m -> "error:" ^ m
          in
          let b = B.stats () and c = I.counters () and g = G.stats () in
          let f = Fault.stats () in
          Printf.printf
            "%-13s frames=%d rows=%s hits=%d misses=%d evictions=%d \
             writebacks=%d spilled_partitions=%d spilled_pages=%d seq=%d \
             rand=%d fetched=%d spilled_stagings=%d spilled_rows=%d \
             draws=%d injected=%d retried=%d\n"
            sname frames
            (String.sub (Digest.to_hex (Digest.string outcome)) 0 12)
            b.B.hits b.B.misses b.B.evictions b.B.writebacks
            b.B.spilled_partitions b.B.spilled_pages c.I.seq_pages
            c.I.rand_pages c.I.fetched_rows g.G.spilled_stagings
            g.G.spilled_rows
            (Fault.draws () - draws0)
            f.Fault.injected f.Fault.retried;
          Fault.disable ();
          B.set_frames None;
          I.set_config saved;
          I.reset ())
        [ 2; 8 ])
    Nra.strategies

let () =
  Nra.set_rewrite_rules [];
  Fault.disable ();
  let emp_dept = Test_support.emp_dept_catalog () in
  List.iter (run emp_dept ~rows_per_page:2) Test_support.subquery_corpus;
  let tpch =
    Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.002 }
  in
  let lo, hi = Q.q1_window ~outer_fraction:0.2 in
  List.iter
    (fun link ->
      run tpch ~rows_per_page:(I.config ()).I.rows_per_page
        (Q.q1_ja ~link ~date_lo:lo ~date_hi:hi))
    [ Q.Ja_in; Q.Ja_not_in; Q.Ja_gt_all; Q.Ja_scalar_eq ]
