(* The three workloads: their session shape, the seeded statement
   sequence each one replays, the timed set-up, and the reference
   results every statement is checked against.

   The seed drives the data generator, the parameter draws and the
   write mix; the engine itself only ever receives the generated
   catalog and SQL text. *)

module Q = Nra.Tpch.Queries
module Gen = Nra.Tpch.Gen
module Server = Nra_server.Server

type name = Ja_scale | Ja_spill | Paper_mix_rw

let names =
  [ ("ja_scale", Ja_scale); ("ja_spill", Ja_spill); ("paper_mix_rw", Paper_mix_rw) ]

let name_to_string n = fst (List.find (fun (_, v) -> v = n) names)

type shape = {
  name : name;
  scale : float;
  strategy : Nra.strategy;
  reference : Nra.strategy;
      (* the second strategy whose results every read is checked
         against *)
  domains : int;
  frames : int option;
  full_setup : bool;
      (* benchmark indexes + ANALYZE + the side table the writes use *)
  rewrites : bool;
}

(* ja_* run nra-optimized, which reads neither the benchmark indexes nor
   ANALYZE statistics, so their set-up skips both (ANALYZE alone is ~10 s
   at scale 0.05); paper_mix_rw's set-up pays for them.  Their reference
   is magic: classical without the indexes falls back to index-less
   nested iteration, minutes per statement at this scale. *)
let ja_shape =
  {
    name = Ja_scale;
    scale = 0.05;
    strategy = Nra.Nra_optimized;
    reference = Nra.Magic;
    domains = 0;
    frames = None;
    full_setup = false;
    rewrites = false;
  }

let shape ?scale name =
  let s =
    match name with
    | Ja_scale -> ja_shape
    | Ja_spill -> { ja_shape with name; domains = 1; frames = Some 8 }
    | Paper_mix_rw ->
        {
          name;
          scale = 0.01;
          strategy = Nra.Auto;
          reference = Nra.Classical;
          domains = 0;
          frames = None;
          full_setup = true;
          rewrites = true;
        }
  in
  match scale with None -> s | Some scale -> { s with scale }

(* ---------- statements ---------- *)

type expect = Rows of int * int  (** cardinality, multiset digest *) | Count of int

type check =
  | Same_as_reference  (** a read: rerun under [shape.reference] *)
  | Count_of of string  (** a write: the row count this query returns *)

type stmt = {
  id : int;  (** position in the pass *)
  family : string;
  sql : string;
  check : check;
  outer_sql : string option;
      (** ja_*: counts the outer block's rows, for the NestGPU table *)
  mutable expect : expect option;
  mutable outer_rows : int;
}

(* Order-insensitive: queries without ORDER BY return a multiset. *)
let digest rel =
  let rows = Nra.Relation.rows rel in
  let h =
    Array.fold_left
      (fun acc r ->
        acc
        + (Hashtbl.hash_param 64 256 r
          lor (Hashtbl.seeded_hash_param 64 256 7 r lsl 30)))
      0 rows
  in
  (Array.length rows, h land max_int)

let side_table = "bench_side"
let preloaded_batches = 20
let order_span = Gen.orderdate_hi - Gen.orderdate_lo

(* an o_orderdate window of [frac] of the date range, starting at
   position [u] in [0, 1] of the room left *)
let window ~frac ~u =
  let width = max 1 (int_of_float (frac *. float_of_int order_span)) in
  let lo =
    Gen.orderdate_lo + int_of_float (u *. float_of_int (order_span - width))
  in
  (Nra.Value.string_of_date lo, Nra.Value.string_of_date (lo + width))

let window_pred (lo, hi) =
  Printf.sprintf "o_orderdate >= date '%s' and o_orderdate < date '%s'" lo hi

let count_orders w =
  Printf.sprintf "select count(*) from orders where %s" (window_pred w)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let mk ?outer_sql ~family ~check sql =
  { id = 0; family; sql; check; outer_sql; expect = None; outer_rows = -1 }

(* ja_*: the four JA links of Query 1-JA over [ja_windows] outer
   windows.  Window widths are stratified over 20-40 % of orders and only
   their start is drawn, so every seed loads the engine alike while the
   statements differ. *)
let ja_windows = 6

let ja_statements rng =
  List.concat_map
    (fun k ->
      let frac = 0.20 +. (0.20 *. (float_of_int k +. 0.5) /. float_of_int ja_windows) in
      let w = window ~frac ~u:(Random.State.float rng 1.0) in
      let lo, hi = w in
      List.map
        (fun link ->
          mk ~outer_sql:(count_orders w)
            ~family:("ja " ^ Q.ja_link_str link)
            ~check:Same_as_reference
            (Q.q1_ja ~link ~date_lo:lo ~date_hi:hi))
        [ Q.Ja_in; Q.Ja_not_in; Q.Ja_gt_all; Q.Ja_scalar_eq ])
    (List.init ja_windows Fun.id)

(* paper_mix_rw: per block of 50 statements, how many of each family.
   Each family draws its parameter from [values] candidates under a
   Zipf(1.2) law whose rank order is itself seeded, so the plan cache
   sees repeats (hits) and first sightings (misses). *)
let mix_blocks = 10

let mix_families =
  [
    ("q1", 8, 8);
    ("q2 any", 4, 8);
    ("q2 all", 4, 8);
    ("q3a exists", 1, 8);
    ("q3a not exists", 1, 8);
    ("q3b exists", 1, 8);
    ("q3b not exists", 1, 8);
    ("q3c exists", 1, 8);
    ("q3c not exists", 1, 8);
    ("ja in", 2, 8);
    ("ja not in", 2, 8);
    ("ja > all", 2, 8);
    ("ja =", 2, 8);
    ("lookup", 15, 5);
    ("insert", 3, 8);
    ("delete", 2, 8);
  ]

let zipf rng n =
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** 1.2)) in
  let x = Random.State.float rng (Array.fold_left ( +. ) 0.0 w) in
  let rec go i acc =
    let acc = acc +. w.(i) in
    if i = n - 1 || x < acc then i else go (i + 1) acc
  in
  go 0 0.0

let availqty = Q.availqty_bound ~fraction:(16_000. /. 800_000.)
let centre v n = (float_of_int v +. 0.5) /. float_of_int n

let preload_sql b =
  Printf.sprintf "insert into %s select %d, o_orderkey, o_totalprice from orders where %s"
    side_table b
    (window_pred (window ~frac:0.01 ~u:(centre b preloaded_batches)))

let delete_sql ~batch ~quantity =
  Printf.sprintf
    "delete from %s where batch = %d and okey in (select l_orderkey from \
     lineitem where l_quantity = %d)"
    side_table batch quantity

(* [batch] numbers the statement's write: inserts create a fresh batch,
   deletes empty one preloaded batch each, so every write's row count is
   independent of the order concurrent writes commit in *)
let mix_statement ~family v ~batch =
  let size () =
    let lo = 1 + (6 * v) in
    (lo, lo + 5)
  in
  let q2 quant =
    let lo, hi = size () in
    Q.q2 ~quant ~size_lo:lo ~size_hi:hi ~availqty_max:availqty ~quantity:25
  in
  let q3 variant exists =
    let lo, hi = size () in
    Q.q3 ~quant:Q.Any ~exists ~variant ~size_lo:lo ~size_hi:hi
      ~availqty_max:availqty ~quantity:25
  in
  let ja link =
    let lo, hi = window ~frac:0.005 ~u:(centre v 8) in
    Q.q1_ja ~link ~date_lo:lo ~date_hi:hi
  in
  let read sql = mk ~family ~check:Same_as_reference sql in
  match family with
  | "q1" ->
      let lo, hi = window ~frac:0.004 ~u:(centre v 8) in
      read (Q.q1 ~date_lo:lo ~date_hi:hi)
  | "q2 any" -> read (q2 Q.Any)
  | "q2 all" -> read (q2 Q.All)
  | "q3a exists" -> read (q3 Q.A true)
  | "q3a not exists" -> read (q3 Q.A false)
  | "q3b exists" -> read (q3 Q.B true)
  | "q3b not exists" -> read (q3 Q.B false)
  | "q3c exists" -> read (q3 Q.C true)
  | "q3c not exists" -> read (q3 Q.C false)
  | "ja in" -> read (ja Q.Ja_in)
  | "ja not in" -> read (ja Q.Ja_not_in)
  | "ja > all" -> read (ja Q.Ja_gt_all)
  | "ja =" -> read (ja Q.Ja_scalar_eq)
  | "lookup" ->
      read
        (Printf.sprintf
           "select s_name from supplier where s_nationkey in (select \
            n_nationkey from nation where n_regionkey = %d)"
           v)
  | "insert" ->
      let w = window ~frac:0.01 ~u:(centre v 8) in
      mk ~family ~check:(Count_of (count_orders w))
        (Printf.sprintf
           "insert into %s select %d, o_orderkey, o_totalprice from orders \
            where %s"
           side_table (1000 + batch) (window_pred w))
  | "delete" ->
      let quantity = 1 + (6 * v) in
      mk ~family
        ~check:
          (Count_of
             (Printf.sprintf
                "select count(*) from %s where batch = %d and okey in \
                 (select l_orderkey from lineitem where l_quantity = %d)"
                side_table batch quantity))
        (delete_sql ~batch ~quantity)
  | f -> invalid_arg ("unknown family " ^ f)

let mix_statements rng =
  let ranked =
    List.map
      (fun (f, _, n) ->
        let perm = Array.init n Fun.id in
        shuffle rng perm;
        (f, perm))
      mix_families
  in
  let slots =
    Array.of_list
      (List.concat_map
         (fun (f, per_block, _) -> List.init (per_block * mix_blocks) (fun _ -> f))
         mix_families)
  in
  shuffle rng slots;
  let inserts = ref 0 and deletes = ref 0 in
  Array.to_list slots
  |> List.map (fun family ->
         let perm = List.assoc family ranked in
         let v = perm.(zipf rng (Array.length perm)) in
         let batch =
           match family with
           | "insert" -> incr inserts; !inserts
           | "delete" -> incr deletes; !deletes - 1
           | _ -> 0
         in
         mix_statement ~family v ~batch)

(* The pass: the statement sequence one run replays, in order. *)
let statements shape ~seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let l =
    match shape.name with
    | Ja_scale | Ja_spill -> ja_statements rng
    | Paper_mix_rw -> mix_statements rng
  in
  let a = Array.of_list l in
  (match shape.name with
  | Ja_scale | Ja_spill -> shuffle rng a
  | Paper_mix_rw -> ());
  Array.mapi (fun id s -> { s with id }) a

(* ---------- set-up ---------- *)

let exec_ok cat sql =
  match Nra.run cat sql with
  | Ok r -> r
  | Error e ->
      failwith
        (Printf.sprintf "set-up statement failed: %s\n  %s"
           (Nra.Exec_error.to_string e) sql)

(* Recreate the side table with its preloaded batches.  Run before every
   phase that replays writes, so each phase starts from the same rows;
   the log of the previous phase is checkpointed away with it. *)
let reset_side cat =
  if Nra.Catalog.mem cat side_table then
    ignore (exec_ok cat ("drop table " ^ side_table));
  ignore
    (exec_ok cat
       (Printf.sprintf
          "create table %s (batch int, okey int, price float, primary key \
           (batch, okey))"
          side_table));
  for b = 0 to preloaded_batches - 1 do
    ignore (exec_ok cat (preload_sql b))
  done;
  Nra.Wal.reset ()

let server_config shape ~slots =
  {
    Server.default_config with
    strategy = shape.strategy;
    domains = Some shape.domains;
    admission =
      (* nothing is turned away or timed out: the open loop measures
         latency growth, and every statement must complete *)
      { Nra_server.Admission.max_concurrent = slots; queue_len = 1_000_000;
        queue_timeout_ms = None };
  }

type env = {
  shape : shape;
  seed : int;
  cat : Nra.Catalog.t;
  stmts : stmt array;
  server : Server.t;  (** the serial-path server ja_* keep for the run *)
  session : Nra_server.Session.t;
}

let warmup_statements = 8

(* One timed set-up: data generation, (paper_mix_rw) indexes, ANALYZE
   and the side table, Server.create, then a warm-up that primes the
   columnar batches of every scanned table, spawns the Domain pool and
   grows the heap before anything is measured. *)
let setup_once shape ~seed stmts =
  Nra.Bufpool.set_frames shape.frames;
  Nra.set_rewrite_rules (if shape.rewrites then Nra.Opt.Config.all else []);
  let cat =
    Gen.generate
      { Gen.default with Gen.scale = shape.scale; seed = Int64.of_int seed }
  in
  if shape.full_setup then begin
    Gen.add_benchmark_indexes cat;
    ignore (exec_ok cat "analyze");
    reset_side cat
  end;
  (* simulated I/O, buffer pool and governor start from zero (before the
     server's clock is read) *)
  Nra.Iosim.reset ();
  let server = Server.create ~config:(server_config shape ~slots:1) cat in
  let session = Server.session server ~label:"bench" () in
  let reads =
    Array.to_list stmts |> List.filter (fun s -> s.check = Same_as_reference)
  in
  List.iteri
    (fun i s ->
      if i < warmup_statements then
        ignore (Server.exec server session s.sql))
    reads;
  { shape; seed; cat; stmts; server; session }

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* One set-up in a forked child that reports its duration and exits.
   Every set-up then starts from a fresh process, and the catalogs of
   the discarded ones (which the engine's process-wide registries keep
   reachable) never add to this process's heap. *)
let setup_in_child shape ~seed stmts =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        match timed (fun () -> setup_once shape ~seed stmts) with
        | _, dt ->
            let s = Printf.sprintf "%.17g" dt in
            ignore (Unix.write_substring w s 0 (String.length s));
            0
        | exception e ->
            prerr_endline ("set-up failed: " ^ Printexc.to_string e);
            1
      in
      Unix.close w;
      exit code
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let out = In_channel.input_all ic in
      close_in ic;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "set-up failed in a child process");
      float_of_string out

(* [setups] timed set-ups: all but the last in child processes, the last
   in this process, whose environment the run uses. *)
let setup shape ~seed ~setups =
  let stmts = statements shape ~seed in
  let children = List.init (max 0 (setups - 1)) (fun _ -> setup_in_child shape ~seed stmts) in
  let env, dt = timed (fun () -> setup_once shape ~seed stmts) in
  (env, children @ [ dt ])

(* The reference results, computed once per distinct statement after
   set-up (not part of setup_s): reads under [shape.reference], writes as
   the row count their [Count_of] query returns on the freshly reset side
   table. *)
let compute_references env =
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      (match Hashtbl.find_opt seen s.sql with
      | Some e -> s.expect <- Some e
      | None ->
          let e =
            match s.check with
            | Same_as_reference -> (
                match Nra.run ~strategy:env.shape.reference env.cat s.sql with
                | Ok (Nra.Rows rel) ->
                    let n, h = digest rel in
                    Rows (n, h)
                | Ok _ -> failwith ("reference returned no rows: " ^ s.sql)
                | Error e ->
                    failwith
                      (Printf.sprintf "reference failed: %s\n  %s"
                         (Nra.Exec_error.to_string e) s.sql))
            | Count_of q -> (
                match Nra.run ~strategy:env.shape.reference env.cat q with
                | Ok (Nra.Rows rel) -> (
                    match Nra.Relation.rows rel with
                    | [| [| Nra.Value.Int n |] |] -> Count n
                    | _ -> failwith ("count query shape: " ^ q))
                | _ -> failwith ("count query failed: " ^ q))
          in
          Hashtbl.replace seen s.sql e;
          s.expect <- Some e);
      match s.outer_sql with
      | None -> ()
      | Some q -> (
          match Nra.run env.cat q with
          | Ok (Nra.Rows rel) -> (
              match Nra.Relation.rows rel with
              | [| [| Nra.Value.Int n |] |] -> s.outer_rows <- n
              | _ -> ())
          | _ -> ()))
    env.stmts

(* [`Ok], [`Wrong] (a result that differs from the reference) or
   [`Error] (the statement failed) *)
let check s (r : (Nra.exec_result, Nra.Exec_error.t) result) =
  match (r, s.expect) with
  | Ok (Nra.Rows rel), Some (Rows (n, h)) ->
      if digest rel = (n, h) then `Ok else `Wrong
  | Ok (Nra.Count c), Some (Count e) -> if c = e then `Ok else `Wrong
  | Ok _, _ -> `Wrong
  | Error _, _ -> `Error
