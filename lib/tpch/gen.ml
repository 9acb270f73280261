open Nra_relational
open Nra_storage

type config = {
  scale : float;
  seed : int64;
  null_rate : float;
  declare_not_null : bool;
}

let default =
  { scale = 0.01; seed = 42L; null_rate = 0.0; declare_not_null = false }

let orderdate_lo =
  match Value.date_of_string "1992-01-01" with
  | Value.Date d -> d
  | _ -> assert false

let orderdate_hi =
  match Value.date_of_string "1998-08-02" with
  | Value.Date d -> d
  | _ -> assert false

(* SF 1 row counts *)
let base_suppliers = 10_000
let base_customers = 150_000
let base_parts = 200_000
let base_orders = 1_500_000

let scaled scale base = max 1 (int_of_float (float_of_int base *. scale))

let region_names = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |]

let nation_names =
  [|
    "ALGERIA"; "ARGENTINA"; "BRAZIL"; "CANADA"; "EGYPT"; "ETHIOPIA";
    "FRANCE"; "GERMANY"; "INDIA"; "INDONESIA"; "IRAN"; "IRAQ"; "JAPAN";
    "JORDAN"; "KENYA"; "MOROCCO"; "MOZAMBIQUE"; "PERU"; "CHINA"; "ROMANIA";
    "SAUDI ARABIA"; "VIETNAM"; "RUSSIA"; "UNITED KINGDOM"; "UNITED STATES";
  |]

(* Shared cells.  Every repeated value is boxed once, in one of the
   tables below, and every row that holds it points at that copy;
   values are immutable, so the engine cannot tell.  A lookup makes the
   same PRNG draws in the same order as the expression it stands for:
   ocamlopt evaluates the arguments of [Printf.sprintf] right to left,
   so "%s %s %s" drew its last argument first. *)

let vf f = Value.Float f
let vs s = Value.String s

let priorities =
  Array.map vs
    [| "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" |]

let segments =
  Array.map vs
    [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "MACHINERY"; "HOUSEHOLD" |]

let part_adjectives =
  [|
    "almond"; "antique"; "aquamarine"; "azure"; "beige"; "bisque"; "black";
    "blanched"; "blue"; "blush"; "brown"; "burlywood"; "burnished"; "chartreuse";
    "chiffon"; "chocolate"; "coral"; "cornflower"; "cornsilk"; "cream";
  |]

let part_types =
  [| "STANDARD"; "SMALL"; "MEDIUM"; "LARGE"; "ECONOMY"; "PROMO" |]

let part_materials = [| "TIN"; "NICKEL"; "BRASS"; "STEEL"; "COPPER" |]

let containers =
  Array.map vs [| "SM CASE"; "LG BOX"; "MED BAG"; "JUMBO JAR"; "WRAP PKG" |]

let ship_modes =
  Array.map vs [| "REG AIR"; "AIR"; "RAIL"; "SHIP"; "TRUCK"; "MAIL"; "FOB" |]

let instructs =
  Array.map vs
    [| "DELIVER IN PERSON"; "COLLECT COD"; "NONE"; "TAKE BACK RETURN" |]

let order_statuses = Array.map vs [| "O"; "F"; "P" |]
let return_flags = Array.map vs [| "R"; "A"; "N" |]
let line_statuses = Array.map vs [| "O"; "F" |]

(* one cell per int in [0, 9999]: sizes, quantities, line numbers,
   available quantities and nation keys.  A primary key of part,
   supplier, customer or orders gets a cell of its own, which every
   foreign key that references it shares. *)
let ints = Array.init 10_000 (fun i -> Value.Int i)
let vi i = ints.(i)

(* ship dates lie up to 121 days after the order date, receipts up to
   30 days after the ship date *)
let last_date = orderdate_hi + 121 + 30
let dates =
  Array.init (last_date - orderdate_lo + 1) (fun i ->
      Value.Date (orderdate_lo + i))
let vd d = dates.(d - orderdate_lo)

(* [phrase lists] boxes every "w1 w2 ..." with one word from each list
   once, and returns a draw of one of them that picks the words as
   [Printf.sprintf "%s %s ..."] over [Prng.pick]s did: the last word
   first. *)
let phrase lists =
  let last = Array.length lists - 1 in
  let n = Array.fold_left (fun n ws -> n * Array.length ws) 1 lists in
  (* a phrase sits at the mixed-radix index of its words, the last
     list least significant *)
  let cells =
    Array.init n (fun i ->
        let words = ref [] and rest = ref i in
        for k = last downto 0 do
          let ws = lists.(k) in
          words := ws.(!rest mod Array.length ws) :: !words;
          rest := !rest / Array.length ws
        done;
        vs (String.concat " " !words))
  in
  fun rng ->
    let i = ref 0 and radix = ref 1 in
    for k = last downto 0 do
      let len = Array.length lists.(k) in
      i := !i + (!radix * Prng.int rng len);
      radix := !radix * len
    done;
    cells.(!i)

let comment = phrase [| part_adjectives; part_types; part_materials |]
let part_name = phrase [| part_adjectives; part_materials |]
let part_type = phrase [| part_types; part_materials |]

let mfgrs =
  Array.init 5 (fun i -> vs (Printf.sprintf "Manufacturer#%d" (i + 1)))
let mfgr rng = mfgrs.(Prng.in_range rng 1 5 - 1)

(* "Brand#d1d2", at [(d1 - 1) * 5 + d2 - 1]; d2 is drawn first *)
let brands =
  Array.init 25 (fun i ->
      vs (Printf.sprintf "Brand#%d%d" ((i / 5) + 1) ((i mod 5) + 1)))

let brand rng =
  let d2 = Prng.in_range rng 1 5 in
  let d1 = Prng.in_range rng 1 5 in
  brands.(((d1 - 1) * 5) + d2 - 1)

let clerks =
  Array.init 1000 (fun i -> vs (Printf.sprintf "Clerk#%09d" (i + 1)))
let clerk rng = clerks.(Prng.in_range rng 1 1000 - 1)

(* discount and tax: hundredths in [0.00, 0.10] *)
let hundredths = Array.init 11 (fun i -> vf (float_of_int i /. 100.0))

let money rng lo hi =
  vf (float_of_int (Prng.in_range rng (lo * 100) (hi * 100)) /. 100.0)

let nullable_money rng cfg lo hi =
  if (not cfg.declare_not_null) && Prng.bool rng cfg.null_rate then Value.Null
  else money rng lo hi

let col = Schema.column

let generate cfg =
  let cat = Catalog.create () in
  let rng = Prng.create cfg.seed in
  let n_suppliers = scaled cfg.scale base_suppliers in
  let n_customers = scaled cfg.scale base_customers in
  let n_parts = scaled cfg.scale base_parts in
  let n_orders = scaled cfg.scale base_orders in

  (* region *)
  let region =
    Table.create ~name:"region" ~key:[ "r_regionkey" ]
      [
        col "r_regionkey" Ttype.Int;
        col ~not_null:true "r_name" Ttype.String;
        col "r_comment" Ttype.String;
      ]
      (Array.init 5 (fun i ->
           [| vi i; vs region_names.(i); comment rng |]))
  in
  Catalog.register cat region;

  (* nation *)
  let nation =
    Table.create ~name:"nation" ~key:[ "n_nationkey" ]
      [
        col "n_nationkey" Ttype.Int;
        col ~not_null:true "n_name" Ttype.String;
        col ~not_null:true "n_regionkey" Ttype.Int;
        col "n_comment" Ttype.String;
      ]
      (Array.init 25 (fun i ->
           [| vi i; vs nation_names.(i); vi (i mod 5); comment rng |]))
  in
  Catalog.register cat nation;

  (* supplier *)
  let supplier_rows =
    Array.init n_suppliers (fun i ->
        let k = i + 1 in
        [|
          Value.Int k;
          vs (Printf.sprintf "Supplier#%09d" k);
          comment rng;
          vi (Prng.int rng 25);
          vs (Printf.sprintf "%02d-%07d" (Prng.in_range rng 10 34)
                (Prng.int rng 10_000_000));
          money rng (-999) 9999;
          comment rng;
        |])
  in
  let supplier =
    Table.create ~name:"supplier" ~key:[ "s_suppkey" ]
      [
        col "s_suppkey" Ttype.Int;
        col ~not_null:true "s_name" Ttype.String;
        col "s_address" Ttype.String;
        col ~not_null:true "s_nationkey" Ttype.Int;
        col "s_phone" Ttype.String;
        col "s_acctbal" Ttype.Float;
        col "s_comment" Ttype.String;
      ]
      supplier_rows
  in
  Catalog.register cat supplier;

  (* customer *)
  let customer_rows =
    Array.init n_customers (fun i ->
        let k = i + 1 in
        [|
          Value.Int k;
          vs (Printf.sprintf "Customer#%09d" k);
          comment rng;
          vi (Prng.int rng 25);
          vs (Printf.sprintf "%02d-%07d" (Prng.in_range rng 10 34)
                (Prng.int rng 10_000_000));
          money rng (-999) 9999;
          Prng.pick rng segments;
          comment rng;
        |])
  in
  let customer =
    Table.create ~name:"customer" ~key:[ "c_custkey" ]
      [
        col "c_custkey" Ttype.Int;
        col ~not_null:true "c_name" Ttype.String;
        col "c_address" Ttype.String;
        col ~not_null:true "c_nationkey" Ttype.Int;
        col "c_phone" Ttype.String;
        col "c_acctbal" Ttype.Float;
        col ~not_null:true "c_mktsegment" Ttype.String;
        col "c_comment" Ttype.String;
      ]
      customer_rows
  in
  Catalog.register cat customer;

  (* part *)
  let part_rows =
    Array.init n_parts (fun i ->
        [|
          Value.Int (i + 1);
          part_name rng;
          mfgr rng;
          brand rng;
          part_type rng;
          vi (Prng.in_range rng 1 50);
          Prng.pick rng containers;
          money rng 500 1500;
          comment rng;
        |])
  in
  let part =
    Table.create ~name:"part" ~key:[ "p_partkey" ]
      [
        col "p_partkey" Ttype.Int;
        col ~not_null:true "p_name" Ttype.String;
        col "p_mfgr" Ttype.String;
        col "p_brand" Ttype.String;
        col "p_type" Ttype.String;
        col ~not_null:true "p_size" Ttype.Int;
        col "p_container" Ttype.String;
        col ~not_null:true "p_retailprice" Ttype.Float;
        col "p_comment" Ttype.String;
      ]
      part_rows
  in
  Catalog.register cat part;

  (* The key cells of part, supplier and customer, for the columns
     that reference them. *)
  let part_key p = part_rows.(p - 1).(0) in
  let supplier_key s = supplier_rows.(s - 1).(0) in
  let customer_key c = customer_rows.(c - 1).(0) in

  (* partsupp: 4 suppliers per part, TPC-H-style spreading; the
     suppliers of part [p], ascending, are [suppliers_of_part.(p - 1)] *)
  let suppliers_of_part =
    Array.init n_parts (fun i ->
        List.init 4 (fun k ->
            1 + ((i + 1 + (k * ((n_suppliers / 4) + 1))) mod n_suppliers))
        |> List.sort_uniq compare |> Array.of_list)
  in
  let partsupp_rows = ref [] in
  for p = n_parts downto 1 do
    Array.iter
      (fun s ->
        partsupp_rows :=
          [|
            part_key p;
            supplier_key s;
            vi (Prng.in_range rng 1 9999);
            nullable_money rng cfg 1 1000;
            comment rng;
          |]
          :: !partsupp_rows)
      suppliers_of_part.(p - 1)
  done;
  let partsupp =
    Table.create ~name:"partsupp" ~key:[ "ps_partkey"; "ps_suppkey" ]
      [
        col "ps_partkey" Ttype.Int;
        col "ps_suppkey" Ttype.Int;
        col ~not_null:true "ps_availqty" Ttype.Int;
        col ~not_null:cfg.declare_not_null "ps_supplycost" Ttype.Float;
        col "ps_comment" Ttype.String;
      ]
      (Array.of_list !partsupp_rows)
  in
  Catalog.register cat partsupp;

  (* orders and lineitem *)
  let order_rows = ref [] in
  let line_rows = ref [] in
  for o = n_orders downto 1 do
    let odate = Prng.in_range rng orderdate_lo orderdate_hi in
    let order_key = Value.Int o in
    order_rows :=
      [|
        order_key;
        customer_key (1 + Prng.int rng n_customers);
        Prng.pick rng order_statuses;
        money rng 1000 500_000;
        vd odate;
        Prng.pick rng priorities;
        clerk rng;
        vi 0;
        comment rng;
      |]
      :: !order_rows;
    let n_lines = Prng.in_range rng 1 7 in
    for l = n_lines downto 1 do
      let p = 1 + Prng.int rng n_parts in
      let ss = suppliers_of_part.(p - 1) in
      let s = ss.(Prng.int rng (Array.length ss)) in
      let ship = odate + Prng.in_range rng 1 121 in
      let commit = odate + Prng.in_range rng 30 90 in
      let receipt = ship + Prng.in_range rng 1 30 in
      line_rows :=
        [|
          order_key;
          part_key p;
          supplier_key s;
          vi l;
          vi (Prng.in_range rng 1 50);
          nullable_money rng cfg 900 104_000;
          hundredths.(Prng.int rng 11);
          hundredths.(Prng.int rng 9);
          Prng.pick rng return_flags;
          Prng.pick rng line_statuses;
          vd ship;
          vd commit;
          vd receipt;
          Prng.pick rng instructs;
          Prng.pick rng ship_modes;
          comment rng;
        |]
        :: !line_rows
    done
  done;
  let orders =
    Table.create ~name:"orders" ~key:[ "o_orderkey" ]
      [
        col "o_orderkey" Ttype.Int;
        col ~not_null:true "o_custkey" Ttype.Int;
        col "o_orderstatus" Ttype.String;
        col ~not_null:true "o_totalprice" Ttype.Float;
        col ~not_null:true "o_orderdate" Ttype.Date;
        col ~not_null:true "o_orderpriority" Ttype.String;
        col "o_clerk" Ttype.String;
        col "o_shippriority" Ttype.Int;
        col "o_comment" Ttype.String;
      ]
      (Array.of_list !order_rows)
  in
  Catalog.register cat orders;
  let lineitem =
    Table.create ~name:"lineitem" ~key:[ "l_orderkey"; "l_linenumber" ]
      [
        col "l_orderkey" Ttype.Int;
        col ~not_null:true "l_partkey" Ttype.Int;
        col ~not_null:true "l_suppkey" Ttype.Int;
        col "l_linenumber" Ttype.Int;
        col ~not_null:true "l_quantity" Ttype.Int;
        col ~not_null:cfg.declare_not_null "l_extendedprice" Ttype.Float;
        col "l_discount" Ttype.Float;
        col "l_tax" Ttype.Float;
        col "l_returnflag" Ttype.String;
        col "l_linestatus" Ttype.String;
        col ~not_null:true "l_shipdate" Ttype.Date;
        col ~not_null:true "l_commitdate" Ttype.Date;
        col ~not_null:true "l_receiptdate" Ttype.Date;
        col "l_shipinstruct" Ttype.String;
        col "l_shipmode" Ttype.String;
        col "l_comment" Ttype.String;
      ]
      (Array.of_list !line_rows)
  in
  Catalog.register cat lineitem;
  cat

let add_benchmark_indexes cat =
  Catalog.create_sorted_index cat ~table:"lineitem"
    [ "l_partkey"; "l_suppkey" ];
  Catalog.create_sorted_index cat ~table:"lineitem" [ "l_partkey" ];
  Catalog.create_sorted_index cat ~table:"lineitem" [ "l_suppkey" ];
  Catalog.create_sorted_index cat ~table:"lineitem" [ "l_orderkey" ];
  Catalog.create_sorted_index cat ~table:"partsupp" [ "ps_partkey" ]
