open Nra
open Test_support
module G = Tpch.Gen
module Q = Tpch.Queries

let small = { G.default with G.scale = 0.002 }

let test_determinism () =
  let a = G.generate small and b = G.generate small in
  List.iter2
    (fun ta tb ->
      Alcotest.(check bool)
        (Table.name ta ^ " identical across runs")
        true
        (Relation.equal_bag (Table.relation ta) (Table.relation tb)))
    (Catalog.tables a) (Catalog.tables b)

let test_row_counts () =
  let cat = G.generate small in
  let n t = Table.cardinality (Catalog.table cat t) in
  Alcotest.(check int) "regions" 5 (n "region");
  Alcotest.(check int) "nations" 25 (n "nation");
  Alcotest.(check int) "suppliers" 20 (n "supplier");
  Alcotest.(check int) "customers" 300 (n "customer");
  Alcotest.(check int) "parts" 400 (n "part");
  Alcotest.(check int) "orders" 3000 (n "orders");
  Alcotest.(check bool) "~4 partsupp per part" true
    (n "partsupp" >= 3 * n "part" && n "partsupp" <= 4 * n "part");
  Alcotest.(check bool) "1–7 lineitems per order" true
    (n "lineitem" >= n "orders" && n "lineitem" <= 7 * n "orders")

let test_key_uniqueness () =
  let cat = G.generate small in
  List.iter
    (fun table ->
      let t = Catalog.table cat table in
      let keys = Table.key_positions t in
      let rows = Relation.rows (Table.relation t) in
      let seen = Hashtbl.create (Array.length rows) in
      Array.iter
        (fun row ->
          let k = Row.project_arr row keys in
          let h = Row.hash k in
          if
            Hashtbl.find_all seen h |> List.exists (fun k2 -> Row.equal k k2)
          then Alcotest.fail (table ^ ": duplicate key");
          Hashtbl.add seen h k)
        rows)
    [ "region"; "nation"; "supplier"; "customer"; "part"; "partsupp";
      "orders"; "lineitem" ]

let test_foreign_keys () =
  let cat = G.generate small in
  let check_fk sql =
    let rel = q cat sql in
    Alcotest.(check int) ("dangling: " ^ sql) 0 (Relation.cardinality rel)
  in
  check_fk
    "select o_orderkey from orders where o_custkey not in (select c_custkey \
     from customer)";
  check_fk
    "select l_orderkey from lineitem where l_orderkey not in (select \
     o_orderkey from orders)";
  check_fk
    "select ps_partkey from partsupp where ps_partkey not in (select \
     p_partkey from part)";
  check_fk
    "select ps_suppkey from partsupp where ps_suppkey not in (select \
     s_suppkey from supplier)";
  (* every lineitem (partkey, suppkey) pair exists in partsupp *)
  check_fk
    "select l_orderkey from lineitem l where not exists (select * from \
     partsupp where ps_partkey = l.l_partkey and ps_suppkey = l.l_suppkey)"

let test_date_invariants () =
  let cat = G.generate small in
  let none sql = Alcotest.(check int) sql 0 (Relation.cardinality (q cat sql)) in
  none
    (Printf.sprintf
       "select o_orderkey from orders where o_orderdate < date '%s'"
       (Value.string_of_date G.orderdate_lo));
  none
    (Printf.sprintf
       "select o_orderkey from orders where o_orderdate > date '%s'"
       (Value.string_of_date G.orderdate_hi));
  (* receipt strictly after ship *)
  none "select l_orderkey from lineitem where l_receiptdate <= l_shipdate"

let test_null_injection () =
  let cat =
    G.generate { small with G.null_rate = 0.5; declare_not_null = false }
  in
  let nulls =
    q cat "select l_orderkey from lineitem where l_extendedprice is null"
  in
  Alcotest.(check bool) "nulls injected" true (Relation.cardinality nulls > 0);
  (* NOT NULL declaration suppresses injection *)
  let cat = G.generate { small with G.null_rate = 0.5; declare_not_null = true } in
  let nulls =
    q cat "select l_orderkey from lineitem where l_extendedprice is null"
  in
  Alcotest.(check int) "constraint wins" 0 (Relation.cardinality nulls)

(* Every cell of every table, fed to one digest: the constructor, the
   int payload, the float's bit pattern and the string's bytes.  Two
   runs of the same code always agree ([test_determinism]); this pins
   the generator against a fixed digest, so a reordered PRNG draw or a
   cell that changes constructor or bits fails here.  The digests were
   recorded before the generator shared its cells. *)
let fingerprint cat =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun t ->
      Buffer.add_string b (Table.name t);
      Array.iter
        (fun row ->
          Array.iter
            (fun (v : Value.t) ->
              match v with
              | Null -> Buffer.add_char b 'N'
              | Bool x -> Buffer.add_string b (if x then "B1" else "B0")
              | Int i -> Printf.bprintf b "I%d;" i
              | Float f -> Printf.bprintf b "F%Lx;" (Int64.bits_of_float f)
              | String s -> Printf.bprintf b "S%d:%s" (String.length s) s
              | Date d -> Printf.bprintf b "D%d;" d)
            row;
          Buffer.add_char b '\n')
        (Relation.rows (Table.relation t)))
    (Catalog.tables cat);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_fingerprint () =
  let check what digest cfg =
    Alcotest.(check string) what digest (fingerprint (G.generate cfg))
  in
  check "default at scale 0.002" "aa1a630205f4a005f8b48fb677962556" small;
  (* seed 7 at rate 0.1 draws NULLs in both nullable money columns *)
  check "scale 0.01, seed 7, null_rate 0.1"
    "9222588d140b0e5dd734b5b67d49e500"
    { G.default with G.scale = 0.01; seed = 7L; null_rate = 0.1 }

(* The generator boxes each repeated value once and points every row at
   that cell: lineitem's rows stay small, a foreign key is the cell of
   the key it references, and a categorical column holds one physical
   cell per value of its domain. *)
let test_shared_cells () =
  let cat = G.generate small in
  let table t =
    let r = Table.relation (Catalog.table cat t) in
    let pos c = Schema.find (Relation.schema r) c in
    (Relation.rows r, pos)
  in
  let lineitem, l_pos = table "lineitem" in
  let words = Obj.reachable_words (Obj.repr lineitem) in
  let per_row = float_of_int words /. float_of_int (Array.length lineitem) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per lineitem row <= 30" per_row)
    true (per_row <= 30.0);
  let orders, o_pos = table "orders" in
  let order_key = Hashtbl.create (Array.length orders) in
  Array.iter
    (fun o ->
      let k = o.(o_pos "o_orderkey") in
      Hashtbl.replace order_key k k)
    orders;
  Array.iter
    (fun l ->
      let k = l.(l_pos "l_orderkey") in
      if not (Hashtbl.find order_key k == k) then
        Alcotest.failf "l_orderkey %s is not its order's cell"
          (Value.to_string k))
    lineitem;
  let distinct_cells c =
    let i = l_pos c in
    Array.fold_left
      (fun seen l -> if List.memq l.(i) seen then seen else l.(i) :: seen)
      [] lineitem
    |> List.length
  in
  List.iter
    (fun (c, domain) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: at most %d cells" c domain)
        true
        (distinct_cells c <= domain))
    [ ("l_shipmode", 7); ("l_returnflag", 3); ("l_discount", 11) ]

let test_benchmark_indexes () =
  let cat = G.generate small in
  G.add_benchmark_indexes cat;
  Alcotest.(check bool) "lineitem composite" true
    (Catalog.sorted_index_on cat ~table:"lineitem" "l_partkey" <> None);
  Alcotest.(check bool) "partsupp" true
    (Catalog.sorted_index_on cat ~table:"partsupp" "ps_partkey" <> None)

let test_queries_analyze () =
  let cat = G.generate small in
  let check sql =
    match Planner.Analyze.analyze_string cat sql with
    | Ok _ -> ()
    | Error m -> Alcotest.fail (m ^ " in " ^ sql)
  in
  let lo, hi = Q.q1_window ~outer_fraction:0.3 in
  check (Q.q1 ~date_lo:lo ~date_hi:hi);
  List.iter
    (fun quant ->
      check (Q.q2 ~quant ~size_lo:1 ~size_hi:10 ~availqty_max:100 ~quantity:25))
    [ Q.Any; Q.All ];
  List.iter
    (fun variant ->
      List.iter
        (fun (quant, exists) ->
          check
            (Q.q3 ~quant ~exists ~variant ~size_lo:1 ~size_hi:10
               ~availqty_max:100 ~quantity:25))
        [ (Q.All, true); (Q.All, false); (Q.Any, true) ])
    [ Q.A; Q.B; Q.C ]

let test_window_helpers () =
  let lo, hi = Q.q1_window ~outer_fraction:1.0 in
  Alcotest.(check string) "full window lo" "1992-01-01" lo;
  Alcotest.(check string) "full window hi" "1998-08-02" hi;
  let s_lo, s_hi = Q.size_window ~outer_fraction:0.5 in
  Alcotest.(check (pair int int)) "half the sizes" (1, 25) (s_lo, s_hi);
  Alcotest.(check int) "availqty bound" 999 (Q.availqty_bound ~fraction:0.1)

let test_q3_variant_strings () =
  let base ~variant =
    Q.q3 ~quant:Q.All ~exists:true ~variant ~size_lo:1 ~size_hi:10
      ~availqty_max:100 ~quantity:25
  in
  let has s sub =
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "A uses equalities" true
    (has (base ~variant:Q.A) "p_partkey = l_partkey");
  Alcotest.(check bool) "B negates the first" true
    (has (base ~variant:Q.B) "p_partkey <> l_partkey");
  Alcotest.(check bool) "C negates the second" true
    (has (base ~variant:Q.C) "ps_suppkey <> l_suppkey")

let () =
  Alcotest.run "tpch"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "row counts" `Quick test_row_counts;
          Alcotest.test_case "key uniqueness" `Quick test_key_uniqueness;
          Alcotest.test_case "foreign keys" `Quick test_foreign_keys;
          Alcotest.test_case "date invariants" `Quick test_date_invariants;
          Alcotest.test_case "null injection" `Quick test_null_injection;
          Alcotest.test_case "benchmark indexes" `Quick test_benchmark_indexes;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint;
          Alcotest.test_case "shared cells" `Quick test_shared_cells;
        ] );
      ( "queries",
        [
          Alcotest.test_case "analyze" `Quick test_queries_analyze;
          Alcotest.test_case "window helpers" `Quick test_window_helpers;
          Alcotest.test_case "variants" `Quick test_q3_variant_strings;
        ] );
    ]
