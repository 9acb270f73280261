(* Prints the index-access golden diffed by this directory's runtest
   rule: the Figure 4–9 queries (Query 2 ANY/ALL, Query 3 a/b/c with
   EXISTS and NOT EXISTS) and the four Query 1-JA links over TPC-H
   scale 0.002 with the benchmark's sorted indexes, under naive,
   classical and auto, one line per run:

   - the result's digest (CSV, or the error text);
   - [Iosim.counters]: sequential pages, random pages, fetched rows.

   Nested iteration probes the sorted and primary-key indexes, so these
   charges pin what every index probe returns and in which order.  The
   catalog is ANALYZEd so Auto prices with real statistics.  Every
   global the counts depend on (rewrite rules, faults, frame budget) is
   set here, so the output depends only on the engine. *)

open Nra
module I = Nra.Iosim
module Q = Tpch.Queries

let one_line sql =
  String.split_on_char '\n' sql
  |> List.map String.trim
  |> List.filter (( <> ) "")
  |> String.concat " "

let strategies =
  [ ("naive", Nra.Naive); ("classical", Nra.Classical); ("auto", Nra.Auto) ]

let run cat sql =
  Printf.printf "=== %s\n" (one_line sql);
  List.iter
    (fun (sname, strategy) ->
      I.reset ();
      let outcome =
        match Nra.query ~strategy cat sql with
        | Ok rel -> Relation.to_csv rel
        | Error m -> "error:" ^ m
      in
      let c = I.counters () in
      Printf.printf "%-9s rows=%s seq=%d rand=%d fetched=%d\n" sname
        (String.sub (Digest.to_hex (Digest.string outcome)) 0 12)
        c.I.seq_pages c.I.rand_pages c.I.fetched_rows)
    strategies;
  I.reset ()

let corpus =
  let q2 quant =
    Q.q2 ~quant ~size_lo:1 ~size_hi:12 ~availqty_max:2000 ~quantity:25
  in
  let q3 exists variant =
    Q.q3 ~quant:Q.Any ~exists ~variant ~size_lo:1 ~size_hi:12
      ~availqty_max:2000 ~quantity:25
  in
  let lo, hi = Q.q1_window ~outer_fraction:0.2 in
  [ q2 Q.Any; q2 Q.All ]
  @ List.concat_map
      (fun variant -> [ q3 true variant; q3 false variant ])
      [ Q.A; Q.B; Q.C ]
  @ List.map
      (fun link -> Q.q1_ja ~link ~date_lo:lo ~date_hi:hi)
      [ Q.Ja_in; Q.Ja_not_in; Q.Ja_gt_all; Q.Ja_scalar_eq ]

let () =
  Nra.set_rewrite_rules [];
  Fault.disable ();
  Bufpool.set_frames None;
  let cat =
    Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.002 }
  in
  Tpch.Gen.add_benchmark_indexes cat;
  (match Nra.exec cat "analyze" with
  | Ok _ -> ()
  | Error m -> failwith ("analyze: " ^ m));
  List.iter (run cat) corpus
