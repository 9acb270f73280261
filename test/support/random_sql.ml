(* Random three-table skeleton queries over random NULL-rich data.

   [catalog] builds rr(rid, a, b), ss(sid, c, d, rref) and tt(tid, e,
   sref) with small-domain values, NULL at the configured rate;
   [query] draws a two- or three-block query over them: an outer
   filter on rr and one linking operator (EXISTS, NOT EXISTS, IN, NOT
   IN, a quantified comparison or an aggregate scalar subquery) over ss,
   correlated to rr by equality, non-equality or a non-key column, with
   a local filter, and optionally a second link from ss to tt, correlated
   to ss or, non-adjacently, to rr.  The executor suites compare every
   strategy on them with each other and with the reference evaluator. *)

open Nra

let cmp_syms = [| "="; "<>"; "<"; "<="; ">"; ">=" |]
let quants = [| "any"; "all" |]

type config = {
  null_rate : float;
  rows_r : int;
  rows_s : int;
  rows_t : int;
}

let catalog rng cfg =
  let v_opt bound =
    if Tpch.Prng.bool rng cfg.null_rate then Value.Null
    else Value.Int (Tpch.Prng.int rng (max 1 bound))
  in
  let cat = Catalog.create () in
  Catalog.register cat
    (Table.create ~name:"rr" ~key:[ "rid" ]
       [
         Schema.column "rid" Ttype.Int;
         Schema.column "a" Ttype.Int;
         Schema.column "b" Ttype.Int;
       ]
       (Array.init cfg.rows_r (fun i -> [| Value.Int i; v_opt 6; v_opt 6 |])));
  Catalog.register cat
    (Table.create ~name:"ss" ~key:[ "sid" ]
       [
         Schema.column "sid" Ttype.Int;
         Schema.column "c" Ttype.Int;
         Schema.column "d" Ttype.Int;
         Schema.column "rref" Ttype.Int;
       ]
       (Array.init cfg.rows_s (fun i ->
            [| Value.Int i; v_opt 6; v_opt 6; v_opt cfg.rows_r |])));
  Catalog.register cat
    (Table.create ~name:"tt" ~key:[ "tid" ]
       [
         Schema.column "tid" Ttype.Int;
         Schema.column "e" Ttype.Int;
         Schema.column "sref" Ttype.Int;
       ]
       (Array.init cfg.rows_t (fun i ->
            [| Value.Int i; v_opt 6; v_opt cfg.rows_s |])));
  cat

let query rng =
  let cmp () = cmp_syms.(Tpch.Prng.int rng 6) in
  let quant () = quants.(Tpch.Prng.int rng 2) in
  let const () = string_of_int (Tpch.Prng.int rng 6) in
  let inner_most =
    if Tpch.Prng.bool rng 0.5 then ""
    else
      let corr =
        match Tpch.Prng.int rng 3 with
        | 0 -> "tt.sref = ss.sid" (* adjacent, equality *)
        | 1 -> "tt.e <> ss.c" (* adjacent, non-equality *)
        | _ -> "tt.e = rr.a" (* non-adjacent *)
      in
      let link =
        match Tpch.Prng.int rng 4 with
        | 0 -> Printf.sprintf "exists (select * from tt where %s)" corr
        | 1 -> Printf.sprintf "not exists (select * from tt where %s)" corr
        | 2 ->
            Printf.sprintf "ss.d %s %s (select e from tt where %s)" (cmp ())
              (quant ()) corr
        | _ ->
            Printf.sprintf "ss.d not in (select e from tt where %s)" corr
      in
      " and " ^ link
  in
  let mid_corr =
    match Tpch.Prng.int rng 3 with
    | 0 -> "ss.rref = rr.rid"
    | 1 -> "ss.c <> rr.b"
    | _ -> "ss.c = rr.a"
  in
  let mid_local =
    match Tpch.Prng.int rng 4 with
    | 0 -> Printf.sprintf "ss.c %s %s" (cmp ()) (const ())
    | 1 -> Printf.sprintf "ss.c between %s and 5" (const ())
    | 2 -> "ss.c is not null"
    | _ -> Printf.sprintf "ss.c in (%s, %s)" (const ()) (const ())
  in
  let subq =
    Printf.sprintf "(select d from ss where %s and %s%s)" mid_corr mid_local
      inner_most
  in
  let link =
    match Tpch.Prng.int rng 6 with
    | 0 ->
        Printf.sprintf
          "exists (select * from ss where %s and %s%s)" mid_corr mid_local
          inner_most
    | 1 ->
        Printf.sprintf
          "not exists (select * from ss where %s and %s%s)" mid_corr
          mid_local inner_most
    | 2 -> Printf.sprintf "rr.b in %s" subq
    | 3 -> Printf.sprintf "rr.b not in %s" subq
    | 4 ->
        (* aggregate scalar subquery: always exactly one value *)
        let agg = [| "min"; "max"; "sum"; "avg"; "count" |] in
        Printf.sprintf "rr.b %s (select %s(d) from ss where %s and %s%s)"
          (cmp ())
          agg.(Tpch.Prng.int rng 5)
          mid_corr mid_local inner_most
    | _ -> Printf.sprintf "rr.b %s %s %s" (cmp ()) (quant ()) subq
  in
  let outer_local = Printf.sprintf "rr.a %s %s" (cmp ()) (const ()) in
  Printf.sprintf "select rid from rr where %s and %s" outer_local link
