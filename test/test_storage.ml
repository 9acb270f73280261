open Nra
open Test_support

(* these tests pin the I/O simulator's exact accounting by calling the
   charge functions directly (no retry wrapper), so a CI-wide
   NRA_FAULT_INJECT run must not perturb them *)
let () = Fault.disable ()

let mk_table () =
  Table.create ~name:"t" ~key:[ "id" ]
    [
      Schema.column "id" Ttype.Int;
      Schema.column "grp" Ttype.Int;
      Schema.column "v" Ttype.Int;
    ]
    (Array.init 100 (fun i -> [| vi i; vi (i mod 7); vi (100 - i) |]))

let test_table_create () =
  let t = mk_table () in
  Alcotest.(check string) "name" "t" (Table.name t);
  Alcotest.(check int) "cardinality" 100 (Table.cardinality t);
  Alcotest.(check (list string)) "key" [ "id" ] (Table.key_columns t);
  let cols = Schema.columns (Table.schema t) in
  Alcotest.(check bool) "key is NOT NULL" true cols.(0).Schema.not_null;
  Alcotest.(check bool) "key flagged" true cols.(0).Schema.is_key;
  Alcotest.(check string) "qualified" "t.id"
    (Schema.qualified_name cols.(0))

let test_table_errors () =
  (match
     Table.create ~name:"bad" ~key:[] [ Schema.column "a" Ttype.Int ] [||]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted empty key");
  (match
     Table.create ~name:"bad" ~key:[ "zz" ]
       [ Schema.column "a" Ttype.Int ]
       [||]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted unknown key column");
  match
    Table.create ~name:"bad" ~key:[ "a" ]
      [ Schema.column "a" Ttype.Int ]
      [| [| vnull |] |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted NULL key"

let test_alias () =
  let t = Table.alias (mk_table ()) "x" in
  Alcotest.(check string) "renamed" "x.id"
    (Schema.qualified_name (Schema.col (Table.schema t) 0));
  Alcotest.(check int) "same rows" 100 (Table.cardinality t);
  let base = mk_table () in
  Alcotest.(check bool) "alias shares the rows array" true
    (Relation.rows (Table.relation (Table.alias base "y"))
    == Relation.rows (Table.relation base));
  Alcotest.check_raises "rename checks the schema's arity"
    (Invalid_argument "Relation.rename: schema arity 1 <> 3") (fun () ->
      ignore
        (Relation.rename (Table.relation base)
           (Schema.of_columns [ col "a" Ttype.Int ])))

let test_hash_index () =
  let t = mk_table () in
  let idx = Hash_index.build (Table.relation t) [| 1 |] in
  Alcotest.(check int) "entries" 100 (Hash_index.cardinality idx);
  let hits = Hash_index.probe idx [| vi 3 |] in
  (* ids ≡ 3 (mod 7) in 0..99: 3, 10, …, 94 *)
  Alcotest.(check int) "group 3 size" 14 (List.length hits);
  List.iter
    (fun id ->
      let row = (Relation.rows (Table.relation t)).(id) in
      Alcotest.check value_testable "key matches" (vi 3) row.(1))
    hits;
  Alcotest.(check (list int)) "null probe" []
    (Hash_index.probe idx [| vnull |]);
  Alcotest.(check (list int)) "miss" [] (Hash_index.probe idx [| vi 99 |])

let test_hash_index_skips_null_keys () =
  let rel =
    Relation.make
      (Schema.of_columns [ Schema.column "a" Ttype.Int ])
      [| [| vi 1 |]; [| vnull |]; [| vi 1 |] |]
  in
  let idx = Hash_index.build rel [| 0 |] in
  Alcotest.(check int) "null row not indexed" 2 (Hash_index.cardinality idx);
  Alcotest.(check int) "both non-null rows found" 2
    (List.length (Hash_index.probe idx [| vi 1 |]))

let test_sorted_index () =
  let t = mk_table () in
  let idx = Sorted_index.build (Table.relation t) [| 2 |] in
  (* v = 100 - id, so range [95, 98] hits ids 2..5 *)
  let ids =
    Sorted_index.range idx ~lo:(Sorted_index.Incl (vi 95))
      ~hi:(Sorted_index.Incl (vi 98))
  in
  Alcotest.(check (list int)) "range ids" [ 2; 3; 4; 5 ]
    (List.sort compare ids);
  let ids =
    Sorted_index.range idx ~lo:(Sorted_index.Excl (vi 95))
      ~hi:Sorted_index.Unbounded
  in
  Alcotest.(check int) "open range" 5 (List.length ids);
  Alcotest.(check (list int)) "probe exact" [ 42 ]
    (Sorted_index.probe idx [| vi 58 |]);
  Alcotest.(check (list int)) "probe null" []
    (Sorted_index.probe idx [| vnull |])

let test_sorted_index_multi () =
  let t = mk_table () in
  let idx = Sorted_index.build (Table.relation t) [| 1; 0 |] in
  Alcotest.(check (list int)) "composite probe" [ 10 ]
    (Sorted_index.probe idx [| vi 3; vi 10 |])

let test_catalog () =
  let cat = Catalog.create () in
  Catalog.register cat (mk_table ());
  Alcotest.(check bool) "mem" true (Catalog.mem cat "t");
  Alcotest.(check bool) "not mem" false (Catalog.mem cat "u");
  Alcotest.(check int) "pk index auto-built" 1
    (match Catalog.hash_index cat ~table:"t" [ "id" ] with
    | Some idx -> List.length (Hash_index.probe (Catalog.force idx) [| vi 5 |])
    | None -> -1);
  Catalog.create_hash_index cat ~table:"t" [ "grp" ];
  Catalog.create_sorted_index cat ~table:"t" [ "v" ];
  Alcotest.(check bool) "secondary hash found" true
    (Catalog.hash_index cat ~table:"t" [ "grp" ] <> None);
  Alcotest.(check bool) "covering prefers widest" true
    (match Catalog.hash_index_covering cat ~table:"t" [ "grp"; "id" ] with
    | Some idx -> List.length (Catalog.columns idx) = 1
    | None -> false);
  Alcotest.(check bool) "sorted_index_on" true
    (Catalog.sorted_index_on cat ~table:"t" "v" <> None);
  Catalog.drop_indexes cat ~table:"t";
  Alcotest.(check bool) "secondary dropped" true
    (Catalog.hash_index cat ~table:"t" [ "grp" ] = None);
  Alcotest.(check bool) "pk survives" true
    (Catalog.hash_index cat ~table:"t" [ "id" ] <> None)

(* Nested iteration's last index fallback picks a sorted index by its
   first column and probes it with that one column's value: the probe
   is on a key prefix. *)
let test_naive_sorted_prefix () =
  let cat = Catalog.create () in
  Catalog.register cat
    (Table.create ~name:"s" ~key:[ "x" ]
       [ col "x" Ttype.Int ]
       [| [| vi 1 |]; [| vi 2 |]; [| vi 3 |] |]);
  Catalog.register cat
    (Table.create ~name:"t" ~key:[ "c" ]
       [ col "a" Ttype.Int; col "b" Ttype.Int; col "c" Ttype.Int ]
       [|
         [| vi 1; vi 10; vi 100 |];
         [| vi 2; vi 20; vi 200 |];
         [| vi 2; vi 21; vi 201 |];
       |]);
  Catalog.create_sorted_index cat ~table:"t" [ "a"; "b" ];
  (* naive is the first strategy, so the others are held to it *)
  let rel =
    check_equivalent cat
      "select x from s where exists (select * from t where t.a = s.x)"
  in
  check_rows "naive finds both" [ [ Some 1 ]; [ Some 2 ] ] rel

(* A write leaves the table's indexes unbuilt; nested iteration builds
   the one it probes on demand, over the rows of the table's current
   version, and finds what a scan finds. *)
let test_naive_index_on_demand () =
  let cat = Catalog.create () in
  let exec sql =
    match Nra.exec cat sql with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "%s: %s" sql m
  in
  exec "create table s (x int, primary key (x))";
  exec "insert into s values (1), (2), (3), (4)";
  exec "create table t (c int, a int, primary key (c))";
  Catalog.create_hash_index cat ~table:"t" [ "a" ];
  exec "insert into t values (100, 1), (101, 2), (102, 2), (103, 5)";
  let sql = "select x from s where exists (select * from t where t.a = s.x)" in
  let naive () =
    let rel = Nra.query_exn ~strategy:Nra.Naive cat sql in
    Alcotest.(check bool) "naive probed the index" true
      (Exec.Naive.stats.Exec.Naive.index_probes > 0);
    rel
  in
  check_rows "built on the first probe" [ [ Some 1 ]; [ Some 2 ] ] (naive ());
  ignore (check_equivalent cat sql);
  exec "insert into t values (104, 3)";
  exec "delete from t where c = 100";
  check_rows "rebuilt over the written rows" [ [ Some 2 ]; [ Some 3 ] ]
    (naive ());
  ignore (check_equivalent cat sql);
  match Catalog.hash_index cat ~table:"t" [ "a" ] with
  | None -> Alcotest.fail "secondary index lost by the writes"
  | Some ix ->
      Alcotest.(check bool) "built once per table version" true
        (Catalog.force ix == Catalog.force ix);
      Alcotest.(check int) "over the current rows" 4
        (Hash_index.cardinality (Catalog.force ix))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_duplicate_key () =
  let cat = Catalog.create () in
  Catalog.register cat
    (Table.create ~name:"d" ~key:[ "k1"; "k2" ]
       [ col "k1" Ttype.Int; col "k2" Ttype.Int; col "v" Ttype.Int ]
       [| [| vi 1; vi 1; vi 0 |] |]);
  let rows =
    [|
      [| vi 1; vi 1; vi 0 |];
      [| vi 2; vi 1; vi 0 |];
      [| vi 1; vi 2; vi 0 |];
      [| vi 2; vi 1; vi 5 |];
      [| vi 1; vi 1; vi 9 |];
    |]
  in
  (* ids 3 and 4 both repeat an earlier key; id 3 comes first *)
  Alcotest.check_raises "first duplicate reported"
    (Invalid_argument "table d: duplicate primary key (2, 1)") (fun () ->
      Catalog.update_rows cat "d" rows);
  Alcotest.(check int) "table unchanged" 1
    (Table.cardinality (Catalog.table cat "d"));
  Catalog.update_rows cat "d" (Array.sub rows 0 3);
  Alcotest.(check int) "distinct keys accepted" 3
    (Table.cardinality (Catalog.table cat "d"));
  match Nra.exec cat "insert into d values (1, 2, 7)" with
  | Ok _ -> Alcotest.fail "duplicate insert accepted"
  | Error m ->
      Alcotest.(check bool) "insert error names the key" true
        (contains m "duplicate primary key (1, 2)")

(* The words an index holds beyond the rows of its relation, which it
   shares: two int arrays plus the buckets for a hash index, one for a
   sorted index — no per-row key copy, tuple or bucket cell. *)
(* An UPDATE's changed rows are the fresh ones, so a key can move onto
   a kept row before or after it, two changed rows can meet on one key,
   or two can trade keys.  Each case sets [id] to [v] where [v > 0]; the
   error names the key of the row a scan of the whole table names
   first: the least position whose key a smaller position holds. *)
let test_update_moves_keys () =
  let cat = Catalog.create () in
  List.iter
    (fun (vs, want) ->
      ignore (Nra.exec cat "drop table k");
      ignore (Nra.exec cat "create table k (id int, v int, primary key (id))");
      ignore
        (Nra.exec cat
           ("insert into k values "
           ^ String.concat ", "
               (List.mapi (fun i v -> Printf.sprintf "(%d, %d)" (i + 1) v) vs)
           ));
      let sql = "update k set id = v where v > 0" in
      match (Nra.exec cat sql, want) with
      | Error m, Some w -> Alcotest.(check string) sql w m
      | Ok _, None -> ()
      | Error m, None -> Alcotest.failf "%s: %s" sql m
      | Ok _, Some w -> Alcotest.failf "accepted, expected %s" w)
    [
      (* onto earlier kept rows: positions 2 and 4 repeat 1 and 3 *)
      ([ 0; 0; 2; 0; 4 ], Some "table k: duplicate primary key (2)");
      (* onto later kept rows: position 1 repeats 0, 3 repeats 2 *)
      ([ 2; 0; 4; 0; 0 ], Some "table k: duplicate primary key (2)");
      (* one later, one earlier: kept position 2 repeats position 0
         before position 3 repeats kept position 1 *)
      ([ 3; 0; 0; 2; 0 ], Some "table k: duplicate primary key (3)");
      (* two changed rows on one key *)
      ([ 0; 9; 0; 9; 0 ], Some "table k: duplicate primary key (9)");
      (* two changed rows meeting (position 3) before one lands on an
         earlier kept row (position 4) *)
      ([ 0; 7; 0; 7; 3 ], Some "table k: duplicate primary key (7)");
      (* and after one lands on a later kept row (position 2) *)
      ([ 0; 3; 0; 7; 7 ], Some "table k: duplicate primary key (3)");
      (* two changed rows trading keys *)
      ([ 0; 4; 0; 2; 0 ], None);
    ];
  check_rows "traded" [ [ Some 2; Some 2 ]; [ Some 4; Some 4 ] ]
    (Nra.query_exn cat "select id, v from k where v > 0");
  check_rows "kept" [ [ Some 1 ]; [ Some 3 ]; [ Some 5 ] ]
    (Nra.query_exn cat "select id from k where v = 0")

let test_index_footprint () =
  let n = 1000 in
  let rel =
    Relation.make
      (Schema.of_columns
         [ col "a" Ttype.Int; col "b" Ttype.Int; col "c" Ttype.String ])
      (Array.init n (fun i ->
           [| vi (i mod 37); vi i; vs (string_of_int i) |]))
  in
  let rows = Relation.rows rel in
  (* the pair's words less the rows' and the pair's own three *)
  let own idx =
    Obj.reachable_words (Obj.repr (idx, rows))
    - Obj.reachable_words (Obj.repr rows)
    - 3
  in
  let rec pow2 k = if k >= n then k else pow2 (2 * k) in
  List.iter
    (fun positions ->
      let h = own (Hash_index.build rel positions) in
      (* head and next arrays, plus the two records and key positions *)
      let bound = n + pow2 1 + 32 in
      if h > bound then
        Alcotest.failf "hash index holds %d words (bound %d)" h bound;
      let s = own (Sorted_index.build rel positions) in
      let bound = n + 16 in
      if s > bound then
        Alcotest.failf "sorted index holds %d words (bound %d)" s bound)
    [ [| 0 |]; [| 0; 1 |]; [| 2; 0 |] ]

let qtest = QCheck_alcotest.to_alcotest

(* Every probe of both index kinds against a linear scan.  Column 0 is
   declared Float and column 1 Int, and both hold Int, Float (integral
   or not) and NULL cells, so keys cross the Int/Float line; positions
   cover one and two columns in either order; probe keys may hold NULL
   or have the wrong arity; range bounds are drawn from all three
   constructors. *)
let gen_cell =
  QCheck.Gen.(
    frequency
      [
        (1, return Value.Null);
        (3, map (fun i -> Value.Int i) (int_bound 3));
        (2, map (fun i -> Value.Float (float_of_int i)) (int_bound 3));
        (1, map (fun i -> Value.Float (float_of_int i +. 0.5)) (int_bound 3));
      ])

let gen_bound =
  QCheck.Gen.(
    frequency
      [
        (1, return Sorted_index.Unbounded);
        (2, map (fun v -> Sorted_index.Incl v) gen_cell);
        (2, map (fun v -> Sorted_index.Excl v) gen_cell);
      ])

let pp_bound = function
  | Sorted_index.Unbounded -> "unbounded"
  | Sorted_index.Incl v -> "incl " ^ Value.to_string v
  | Sorted_index.Excl v -> "excl " ^ Value.to_string v

let pp_cells r = Format.asprintf "%a" Row.pp r

let arb_index_case =
  QCheck.make
    ~print:(fun (rows, positions, key, (lo, hi)) ->
      Printf.sprintf "rows=[%s] positions=[%s] key=%s lo=%s hi=%s"
        (String.concat "; " (List.map pp_cells rows))
        (String.concat ";" (Array.to_list (Array.map string_of_int positions)))
        (pp_cells key) (pp_bound lo) (pp_bound hi))
    QCheck.Gen.(
      quad
        (list_size (int_bound 30) (array_repeat 2 gen_cell))
        (oneofl [ [| 0 |]; [| 1 |]; [| 0; 1 |]; [| 1; 0 |] ])
        (array_size (int_bound 3) gen_cell)
        (pair gen_bound gen_bound))

let prop_index_vs_scan =
  QCheck.Test.make ~count:500 ~name:"hash and sorted probes agree with scans"
    arb_index_case (fun (rows, positions, key, (lo, hi)) ->
      let rel =
        Relation.make
          (Schema.of_columns [ col "f" Ttype.Float; col "i" Ttype.Int ])
          (Array.of_list rows)
      in
      let rows = Relation.rows rel in
      let ids = List.init (Array.length rows) Fun.id in
      let keyed =
        List.filter (fun id -> not (Row.has_null_on positions rows.(id))) ids
      in
      let npos = Array.length positions and k = Array.length key in
      let prefix_equal id =
        List.for_all
          (fun i -> Value.compare rows.(id).(positions.(i)) key.(i) = 0)
          (List.init k Fun.id)
      in
      let no_null = not (Array.exists Value.is_null key) in
      let hash_expect =
        if k = npos && no_null then List.filter prefix_equal keyed else []
      in
      let sorted_expect =
        if k >= 1 && k <= npos && no_null then List.filter prefix_equal keyed
        else []
      in
      let first id = rows.(id).(positions.(0)) in
      let within id =
        (match lo with
        | Sorted_index.Unbounded -> true
        | Incl v -> Value.compare (first id) v >= 0
        | Excl v -> Value.compare (first id) v > 0)
        &&
        match hi with
        | Sorted_index.Unbounded -> true
        | Incl v -> Value.compare (first id) v <= 0
        | Excl v -> Value.compare (first id) v < 0
      in
      let range_expect =
        List.filter within keyed
        |> List.stable_sort (fun a b ->
               Row.compare_on positions rows.(a) rows.(b))
      in
      (* the first keyed id whose key an earlier keyed id holds *)
      let duplicate_expect =
        List.find_opt
          (fun id ->
            List.exists
              (fun id' ->
                id' < id && Row.equal_on positions rows.(id') rows.(id))
              keyed)
          keyed
      in
      let h = Hash_index.build rel positions in
      let s = Sorted_index.build rel positions in
      Hash_index.probe h key = hash_expect
      && Hash_index.first_duplicate h = duplicate_expect
      && Sorted_index.probe s key = sorted_expect
      && Sorted_index.range s ~lo ~hi = range_expect
      && Hash_index.cardinality h = List.length keyed
      && Sorted_index.cardinality s = List.length keyed)

(* The write's key check against a full scan.  A table of small
   two-column keys is written with a random set of fresh rows (or none
   named: every row fresh).  The kept rows held distinct keys before
   the write, so a kept row whose key an earlier kept row holds is made
   fresh.  The check raises exactly when the whole table holds a
   repeated key, naming the key at [Hash_index.first_duplicate]. *)
let arb_write =
  QCheck.make
    ~print:(fun (rows, fresh) ->
      Printf.sprintf "rows=[%s] fresh=%s"
        (String.concat "; "
           (List.map (fun (a, b) -> Printf.sprintf "(%d, %d)" a b) rows))
        (match fresh with
        | None -> "all"
        | Some f -> String.concat "" (List.map (fun b -> if b then "1" else "0") f)))
    QCheck.Gen.(
      list_size (int_bound 24) (pair (int_bound 3) (int_bound 2)) >>= fun rows ->
      let n = List.length rows in
      opt ~ratio:0.8 (list_repeat n (frequency [ (1, return true); (3, return false) ]))
      >|= fun fresh -> (rows, fresh))

let prop_delta_key_check =
  QCheck.Test.make ~count:1000 ~name:"delta key check matches a full scan"
    arb_write (fun (keys, fresh) ->
      let rows =
        Array.of_list
          (List.mapi (fun i (a, b) -> [| vi a; vi b; vi i |]) keys)
      in
      (* a kept row repeating an earlier kept row's key is fresh *)
      let fresh =
        Option.map
          (fun marks ->
            let seen = Hashtbl.create 16 in
            List.combine keys marks
            |> List.mapi (fun i (k, m) ->
                   if m || Hashtbl.mem seen k then Some i
                   else (Hashtbl.add seen k (); None))
            |> List.filter_map Fun.id |> Array.of_list)
          fresh
      in
      let cat = Catalog.create () in
      Catalog.register cat
        (Table.create ~name:"w" ~key:[ "a"; "b" ]
           [ col "a" Ttype.Int; col "b" Ttype.Int; col "v" Ttype.Int ]
           [||]);
      let rel =
        Relation.make (Table.schema (Catalog.table cat "w")) rows
      in
      let expect =
        Hash_index.first_duplicate (Hash_index.build rel [| 0; 1 |])
        |> Option.map (fun id ->
               Format.asprintf "table w: duplicate primary key %a" Row.pp
                 (Row.project_arr rows.(id) [| 0; 1 |]))
      in
      let got =
        match Catalog.update_rows ?fresh cat "w" rows with
        | () -> None
        | exception Invalid_argument m -> Some m
      in
      got = expect
      && Table.cardinality (Catalog.table cat "w")
         = if expect = None then Array.length rows else 0)

let () =
  Alcotest.run "storage"
    [
      ( "table",
        [
          Alcotest.test_case "create" `Quick test_table_create;
          Alcotest.test_case "errors" `Quick test_table_errors;
          Alcotest.test_case "alias" `Quick test_alias;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "hash" `Quick test_hash_index;
          Alcotest.test_case "hash skips NULL keys" `Quick
            test_hash_index_skips_null_keys;
          Alcotest.test_case "sorted" `Quick test_sorted_index;
          Alcotest.test_case "sorted composite" `Quick test_sorted_index_multi;
          Alcotest.test_case "footprint" `Quick test_index_footprint;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "registry" `Quick test_catalog;
          Alcotest.test_case "duplicate primary key" `Quick test_duplicate_key;
          Alcotest.test_case "naive probes a sorted index prefix" `Quick
            test_naive_sorted_prefix;
          Alcotest.test_case "UPDATE moves keys" `Quick test_update_moves_keys;
          Alcotest.test_case "naive builds an index on demand" `Quick
            test_naive_index_on_demand;
        ] );
      ( "properties",
        [ qtest prop_index_vs_scan; qtest prop_delta_key_check ] );
    ]
