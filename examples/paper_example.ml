(* The paper's running example (Sections 2–4), step by step: base
   relations R, S, T; the unnesting outer joins (Temp1); the nest
   (Temp2); the pseudo-selection σ̄ (Temp3); the selection σ (Temp4);
   the tree expression; and the final result of Query Q.

     dune exec examples/paper_example.exe *)

open Nra
module J = Algebra.Join
module G = Nested.Grouped
module LP = Nested.Link_pred
module T3 = Three_valued

let vi i = Value.Int i
let vnull = Value.Null
let col = Schema.column

let r =
  Table.create ~name:"r" ~key:[ "d" ]
    [ col "a" Ttype.Int; col "b" Ttype.Int; col "c" Ttype.Int;
      col "d" Ttype.Int ]
    [|
      [| vi 20; vi 1; vi 2; vi 3 |];
      [| vi 30; vi 2; vi 3; vi 5 |];
      [| vnull; vnull; vi 5; vi 4 |];
    |]

let s =
  Table.create ~name:"s" ~key:[ "i" ]
    [ col "e" Ttype.Int; col "f" Ttype.Int; col "g" Ttype.Int;
      col "h" Ttype.Int; col "i" Ttype.Int ]
    [|
      [| vi 1; vi 5; vi 3; vi 8; vi 1 |];
      [| vi 2; vi 5; vi 3; vi 9; vi 2 |];
      [| vi 3; vi 5; vi 5; vnull; vi 4 |];
    |]

let t =
  Table.create ~name:"t" ~key:[ "l" ]
    [ col "j" Ttype.Int; col "k" Ttype.Int; col "l" Ttype.Int ]
    [|
      [| vi 7; vi 2; vi 1 |];
      [| vi 9; vi 2; vi 3 |];
      [| vnull; vi 4; vi 2 |];
    |]

let query_q =
  {|select r.b, r.c, r.d
from r
where r.a > 10 and r.b not in
  (select s.e from s
   where s.f = 5 and r.d = s.g and s.h > all
     (select t.j from t where t.k = r.c and t.l <> s.i))|}

let section title = Printf.printf "\n===== %s =====\n" title

let () =
  section "Base relations (Figure 1)";
  Format.printf "%a@.@.%a@.@.%a@." Table.pp r Table.pp s Table.pp t;

  section "Query Q (Section 2)";
  print_endline query_q;

  (* ---- Temp1: unnest top-down with left outer joins ---- *)
  section "Temp1 = π(R ⟕_{R.D=S.G} S ⟕_{T.K=R.C ∧ T.L≠S.I} T)";
  let rrel = Table.relation r
  and srel = Table.relation s
  and trel = Table.relation t in
  let rs_schema =
    Schema.append (Relation.schema rrel) (Relation.schema srel)
  in
  let cmp_cols sch op t1 c1 t2 c2 =
    Expr.Cmp
      (op, Expr.Col (Schema.find sch ~table:t1 c1),
       Expr.Col (Schema.find sch ~table:t2 c2))
  in
  let rs =
    J.join J.Left_outer ~on:(cmp_cols rs_schema T3.Eq "r" "d" "s" "g") rrel
      srel
  in
  let rst_schema = Schema.append rs_schema (Relation.schema trel) in
  let rst =
    J.join J.Left_outer
      ~on:
        (Expr.And
           ( cmp_cols rst_schema T3.Eq "t" "k" "r" "c",
             cmp_cols rst_schema T3.Neq "t" "l" "s" "i" ))
      rs trel
  in
  let temp1 =
    Algebra.Basic.project_cols
      (List.map
         (fun (tb, c) -> Schema.find rst_schema ~table:tb c)
         [ ("r", "b"); ("r", "c"); ("r", "d"); ("s", "e"); ("s", "h");
           ("s", "i"); ("t", "j"); ("t", "l") ])
      rst
  in
  Format.printf "%a@." Relation.pp temp1;

  (* ---- Temp2: nest ---- *)
  section "Temp2 = ν_{B,C,D,E,H,I},{J,L}(Temp1)  (Figure 2a)";
  let p tb c = Schema.find (Relation.schema temp1) ~table:tb c in
  let temp2 =
    G.nest_sort
      ~by:[| p "r" "b"; p "r" "c"; p "r" "d"; p "s" "e"; p "s" "h";
             p "s" "i" |]
      ~keep:[| p "t" "j"; p "t" "l" |]
      temp1
  in
  Format.printf "%a@." G.pp temp2;

  (* ---- Temp3 / Temp4: the two linking selections ---- *)
  let all_pred =
    LP.Quant
      (Expr.Col (Schema.find temp2.G.key_schema ~table:"s" "h"),
       T3.Gt, LP.All, 0)
  in
  let marker = Some (Schema.find temp2.G.elem_schema ~table:"t" "l") in
  section "Temp3 = σ̄_{S.H>ALL{T.J}, pad {S.E,S.H,S.I}}(Temp2)  (Figure 2b)";
  let pad =
    Array.of_list
      (List.map
         (fun c -> Schema.find temp2.G.key_schema ~table:"s" c)
         [ "e"; "h"; "i" ])
  in
  Format.printf "%a@." Relation.pp
    (G.select (G.Pad pad) all_pred ~marker temp2);
  section "Temp4 = σ_{S.H>ALL{T.J}}(Temp2)  (Figure 2c)";
  Format.printf "%a@." Relation.pp
    (G.select G.Discard all_pred ~marker temp2);

  (* ---- the planner's tree expression and the full evaluation ---- *)
  let cat = Catalog.create () in
  List.iter (Catalog.register cat) [ r; s; t ];
  section "Tree expression (Figure 3a)";
  (match Nra.explain cat query_q with
  | Ok text -> print_endline text
  | Error e -> prerr_endline e);

  section "Query Q under every strategy";
  List.iter
    (fun (name, strat) ->
      match Nra.query ~strategy:strat cat query_q with
      | Ok rel ->
          Format.printf "--- %s:@.%a@." name Relation.pp rel
      | Error e -> Format.printf "--- %s: error %s@." name e)
    Nra.strategies
