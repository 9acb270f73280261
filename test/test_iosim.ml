open Nra
module I = Nra_storage.Iosim

(* these tests pin the simulator's exact accounting by calling the
   charge functions directly (no retry wrapper), so a CI-wide
   NRA_FAULT_INJECT run must not perturb them; likewise the
   integration case pins the exact charges of the unrewritten plans,
   so a CI-wide NRA_REWRITE run must not change them either *)
let () = Nra.configure
    { (Nra.config ()) with faults = Fault.default_config; rules = [] }

let approx = Alcotest.float 1e-9

let with_config cfg f =
  Test_support.with_config (fun c -> { c with iosim = cfg }) @@ fun () ->
  I.reset ();
  Fun.protect ~finally:I.reset f

let cfg =
  {
    I.rows_per_page = 10;
    t_seq_ms = 1.0;
    t_rand_ms = 10.0;
    t_fetch_ms = 0.5;
    cache_pages = 0;
    page_size_kb = 8.0;
  }

let test_scan_pages () =
  with_config cfg (fun () ->
      I.charge_scan_rows 25;
      Alcotest.(check int) "ceil(25/10)" 3 (I.counters ()).I.seq_pages;
      I.charge_scan_rows 1;
      Alcotest.(check int) "one more page" 4 (I.counters ()).I.seq_pages;
      I.charge_scan_rows 0;
      Alcotest.(check int) "empty scan free" 4 (I.counters ()).I.seq_pages)

let test_probe () =
  with_config cfg (fun () ->
      I.charge_probe ~matches:3;
      Alcotest.(check int) "leaf + 3 fetches" 4 (I.counters ()).I.rand_pages)

let test_fetch_and_time () =
  with_config cfg (fun () ->
      I.charge_scan_rows 10;
      I.charge_probe ~matches:0;
      I.charge_fetch_rows 100;
      (* 1 page seq * 1ms + 1 rand * 10ms + 100 rows * 0.5ms = 61 ms *)
      Alcotest.check approx "simulated seconds" 0.061 (I.simulated_seconds ()))

let test_reset () =
  with_config cfg (fun () ->
      I.charge_scan_rows 100;
      I.reset ();
      Alcotest.check approx "reset" 0.0 (I.simulated_seconds ()))

let test_executors_charge () =
  with_config I.default_config (fun () ->
      let cat =
        Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale = 0.002 }
      in
      Tpch.Gen.add_benchmark_indexes cat;
      let lo, hi = Tpch.Queries.q1_window ~outer_fraction:0.3 in
      let sql = Tpch.Queries.q1 ~date_lo:lo ~date_hi:hi in
      I.reset ();
      ignore (Nra.query_exn ~strategy:Nra.Naive cat sql);
      let naive = I.counters () in
      Alcotest.(check bool) "naive probes" true (naive.I.rand_pages > 0);
      I.reset ();
      ignore (Nra.query_exn ~strategy:Nra.Nra_optimized cat sql);
      let nra = I.counters () in
      Alcotest.(check bool) "NRA never probes" true (nra.I.rand_pages = 0);
      Alcotest.(check bool) "NRA scans" true (nra.I.seq_pages > 0);
      Alcotest.(check bool) "NRA pays fetch" true (nra.I.fetched_rows > 0))

let test_lru () =
  let module L = Nra_storage.Lru in
  let l = L.create ~capacity:2 in
  Alcotest.(check bool) "first touch misses" false (L.touch l 1);
  Alcotest.(check bool) "second touch hits" true (L.touch l 1);
  ignore (L.touch l 2);
  ignore (L.touch l 1);
  (* recency is 1 > 2 — inserting 3 evicts 2 *)
  ignore (L.touch l 3);
  Alcotest.(check bool) "lru evicted" false (L.mem l 2);
  Alcotest.(check bool) "recent survives" true (L.mem l 1);
  Alcotest.(check int) "size bounded" 2 (L.size l);
  L.clear l;
  Alcotest.(check int) "cleared" 0 (L.size l);
  let l0 = L.create ~capacity:0 in
  Alcotest.(check bool) "capacity 0 never hits" false
    (L.touch l0 7 || L.touch l0 7)

(* ---------- the array Lru against a list model ----------

   The model is the obvious list, most recent first.  Keys come from a
   small pool, so home cells collide and removals exercise the
   backward shift; half of them carry a high owner part, as the buffer
   pool's page keys do.  A capacity of [max_int] grows the slots and
   the index past their first size.  After every step the two agree on
   residency of every pool key, on the size, and slots stay inside the
   smallest slot array that fits the largest size seen (a freed slot is
   reused before the arrays grow). *)

type lru_op = Touch of int | Remove of int | Evict of int | Clear

let pp_lru_op = function
  | Touch k -> Printf.sprintf "touch %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Evict m -> Printf.sprintf "evict (pinned: k mod %d = 0)" m
  | Clear -> "clear"

let lru_key =
  QCheck.Gen.(
    map2 (fun hi k -> if hi then (k lsl 31) lor 5 else k) bool (int_bound 40))

let lru_case =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat "; " (List.map pp_lru_op ops)))
    QCheck.Gen.(
      pair
        (oneofl [ 1; 2; 5; 8; 13; 100; max_int ])
        (list_size (int_range 1 400)
           (frequency
              [
                (12, map (fun k -> Touch k) lru_key);
                (4, map (fun k -> Remove k) lru_key);
                (3, map (fun m -> Evict m) (int_range 2 4));
                (1, return Clear);
              ])))

let lru_pool =
  List.concat_map (fun k -> [ k; (k lsl 31) lor 5 ]) (List.init 41 Fun.id)

let prop_lru_model (cap, ops) =
  let module L = Nra_storage.Lru in
  let l = L.create ~capacity:cap in
  let model = ref [] and peak = ref 0 in
  let slots_bound () =
    let b = ref 8 in
    while !b < !peak do
      b := 2 * !b
    done;
    !b
  in
  let check_slot s =
    if s >= L.slots l || L.slots l > slots_bound () then
      QCheck.Test.fail_reportf "slot %d of %d" s (L.slots l)
  in
  List.iter
    (fun op ->
      (match op with
      | Touch k ->
          let hit = List.mem k !model in
          let m = k :: List.filter (( <> ) k) !model in
          model :=
            if List.length m > cap then List.filteri (fun i _ -> i < cap) m
            else m;
          if L.touch l k <> hit then QCheck.Test.fail_reportf "touch %d" k;
          peak := max !peak (List.length !model);
          check_slot (L.find l k)
      | Remove k ->
          model := List.filter (( <> ) k) !model;
          L.remove l k
      | Evict m ->
          let pinned k = k mod m = 0 in
          let expect =
            List.fold_left
              (fun acc k -> if pinned k then acc else Some k)
              None !model
          in
          let s = L.victim l (fun s -> not (pinned (L.key l s))) in
          (match expect with
          | None -> if s <> -1 then QCheck.Test.fail_reportf "victim %d" s
          | Some k ->
              if s < 0 || L.key l s <> k then
                QCheck.Test.fail_reportf "victim: want %d" k;
              L.remove_slot l s;
              model := List.filter (( <> ) k) !model)
      | Clear ->
          model := [];
          L.clear l);
      peak := max !peak (List.length !model);
      if L.size l <> List.length !model then
        QCheck.Test.fail_reportf "size %d, model %d" (L.size l)
          (List.length !model);
      List.iter
        (fun k ->
          if L.mem l k <> List.mem k !model then
            QCheck.Test.fail_reportf "residency of %d after %s" k
              (pp_lru_op op))
        lru_pool)
    ops;
  true

let test_lru_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"array Lru = list model" lru_case
       prop_lru_model)

let test_buffer_cache () =
  with_config { cfg with I.cache_pages = 1 } (fun () ->
      (* rows 0..9 share page 0 (rows_per_page = 10) *)
      I.charge_row_fetch ~table:"t" ~row_id:3;
      I.charge_row_fetch ~table:"t" ~row_id:7;
      Alcotest.(check int) "one miss, one hit" 1 (I.counters ()).I.rand_pages;
      Alcotest.(check int) "hits counted" 1 (I.cache_hits ());
      (* a different page evicts page 0 in a 1-page cache *)
      I.charge_row_fetch ~table:"t" ~row_id:15;
      I.charge_row_fetch ~table:"t" ~row_id:3;
      Alcotest.(check int) "re-read after eviction" 3
        (I.counters ()).I.rand_pages;
      (* same page number of another table is a distinct page *)
      I.charge_row_fetch ~table:"u" ~row_id:3;
      Alcotest.(check int) "tables do not alias" 4
        (I.counters ()).I.rand_pages)

let test_cache_disabled () =
  with_config cfg (fun () ->
      I.charge_row_fetch ~table:"t" ~row_id:1;
      I.charge_row_fetch ~table:"t" ~row_id:1;
      Alcotest.(check int) "no cache: every fetch pays" 2
        (I.counters ()).I.rand_pages)

(* ---------- a charge allocates nothing ----------

   Every page the buffer pool or a scan charges lands here, with an
   Auto attempt's ledger open or not.  Faults are off (the test turns
   them off itself), so [Fault.with_retries] takes its first-attempt
   path. *)

let page_in () = I.charge_page_in 1

let test_charges_no_alloc () =
  Fault.disable ();
  with_config { cfg with I.cache_pages = 16 } (fun () ->
      let n = 100_000 in
      let check name f =
        Alcotest.(check bool)
          (name ^ " allocates nothing") true
          (Test_support.words_per n f < 0.01)
      in
      let charges () =
        check "charge_scan_rows" (fun i -> I.charge_scan_rows (i land 255));
        check "charge_probe" (fun i -> I.charge_probe ~matches:(i land 3));
        check "charge_random_pages" (fun _ -> I.charge_random_pages 1);
        check "charge_row_fetch" (fun i ->
            I.charge_row_fetch ~table:"t" ~row_id:(i * 37 mod 1000));
        check "charge_fetch_rows" (fun _ -> I.charge_fetch_rows 3);
        check "charge_page_in" (fun _ -> I.charge_page_in 1);
        check "charge_page_out" (fun _ -> I.charge_page_out 1);
        check "charge_wal_append" (fun _ -> I.charge_wal_append ~pages:1);
        check "Fault.with_retries without a fault" (fun _ ->
            Fault.with_retries page_in)
      in
      charges ();
      let l = I.push_ledger () in
      charges ();
      I.pop_ledger l;
      Alcotest.(check bool) "the row-fetch cache both hit and missed" true
        (I.cache_hits () > 0 && I.cache_misses () > 0))

(* A scan is charged 8 pages at a time with a checkpoint between
   chunks, and each chunk's charge is retried through
   [Fault.retrying], so no chunk builds a closure.  300,000 rows is
   lineitem at scale 0.05: about 375 chunks at the default page size,
   where a closure per chunk came to about 1,900 words. *)
let test_scan_charge_no_alloc () =
  Fault.disable ();
  let words =
    Test_support.words_per 5 (fun _ ->
        Exec.Frame.charge_scan_chunked 300_000)
  in
  if words >= 16.0 then
    Alcotest.failf "a 300,000-row scan charge allocated %.0f words" words

(* The measurement subtracts its own reads: an empty thunk reads no
   words, at one call as at several. *)
let test_words_per_empty () =
  List.iter
    (fun n ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "an empty thunk at n = %d" n)
        0.0
        (Test_support.words_per n ignore))
    [ 1; 5 ]

(* [charge_row_fetch] names a page by hashing a reused two-field record
   in place of a [(table, page)] pair: the two must hash alike *)
type fetch_page = { mutable table : string; mutable page : int }

let test_fetch_key_hash =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"a page record hashes like a pair"
       QCheck.(pair string int)
       (fun (table, page) ->
         Hashtbl.hash { table; page } = Hashtbl.hash (table, page)))

let () =
  Alcotest.run "iosim"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru;
          test_lru_model;
          test_fetch_key_hash;
          Alcotest.test_case "buffer cache" `Quick test_buffer_cache;
          Alcotest.test_case "cache disabled" `Quick test_cache_disabled;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "scan pages" `Quick test_scan_pages;
          Alcotest.test_case "probe" `Quick test_probe;
          Alcotest.test_case "fetch and time" `Quick test_fetch_and_time;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "words_per reads nothing of its own" `Quick
            test_words_per_empty;
          Alcotest.test_case "a charge allocates nothing" `Quick
            test_charges_no_alloc;
          Alcotest.test_case "a chunked scan charge allocates nothing" `Quick
            test_scan_charge_no_alloc;
        ] );
      ( "integration",
        [
          Alcotest.test_case "executors charge the model" `Quick
            test_executors_charge;
        ] );
    ]
