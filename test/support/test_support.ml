(* Shared fixtures and helpers for the test suites. *)

open Nra

(* the naive tuple-at-a-time differential oracle lives in its own
   module; re-export it so suites can say Test_support.Reference_eval *)
module Reference_eval = Reference_eval

(* ANALYZE's original boxed collector, the reference for Col_stats *)
module Reference_stats = Reference_stats

(* random three-table queries and catalogs, for the differential
   suites *)
module Random_sql = Random_sql

(* ---------- the engine configuration ----------

   Every suite starts under the config the NRA_* environment names (how
   CI's stress points squeeze the whole suite); a malformed value stops
   it.  The library is linked whole (see dune), so a suite that names
   nothing here starts under it too. *)
let () =
  match Engine_config.of_env Sys.getenv_opt with
  | Ok c -> Nra.configure c
  | Error m ->
      prerr_endline ("test configuration: " ^ m);
      exit 2

(* [f ()] under [change (Nra.config ())]; the config is restored after *)
let with_config change f =
  let saved = Nra.config () in
  Nra.configure (change saved);
  Fun.protect ~finally:(fun () -> Nra.configure saved) f

(* the plain engine: serial, no buffer pool, no faults *)
let plain (c : Engine_config.t) =
  { c with domains = 0; frames = Off; faults = Fault.default_config }

let vi i = Value.Int i
let vf f = Value.Float f
let vs s = Value.String s
let vnull = Value.Null
let col = Schema.column

(* ---------- nested relations and linking predicates ----------

   What the tests read off the engine's one nested model: a linking
   predicate's verdict over a list of element rows (one pass of
   {!Nested.Link_pred.fold}), and a [Grouped.t]'s group count and
   flattening, from its public fields. *)

let link_eval pred ~outer ~elems =
  let f = Nested.Link_pred.fold pred in
  Nested.Link_pred.start f ~outer;
  List.iter (Nested.Link_pred.step_elem f ~marker:None) elems;
  Nested.Link_pred.finish f

let group_count (g : Nested.Grouped.t) = Array.length g.Nested.Grouped.groups

(* groups with no elements vanish *)
let unnest (g : Nested.Grouped.t) =
  Relation.of_rows
    (Schema.append g.Nested.Grouped.key_schema g.Nested.Grouped.elem_schema)
    (List.concat_map
       (fun (key, elems) ->
         List.map (fun e -> Row.concat key e) (Array.to_list elems))
       (Array.to_list g.Nested.Grouped.groups))

(* ---------- the paper's Figure 1 base relations ----------

   R(A, B, C, D) with key D; S(E, F, G, H, I) with key I;
   T(J, K, L) with key L. *)

let paper_r () =
  Table.create ~name:"r" ~key:[ "d" ]
    [
      col "a" Ttype.Int;
      col "b" Ttype.Int;
      col "c" Ttype.Int;
      col "d" Ttype.Int;
    ]
    [|
      [| vi 20; vi 1; vi 2; vi 3 |];
      [| vi 30; vi 2; vi 3; vi 5 |];
      [| vnull; vnull; vi 5; vi 4 |];
    |]

let paper_s () =
  Table.create ~name:"s" ~key:[ "i" ]
    [
      col "e" Ttype.Int;
      col "f" Ttype.Int;
      col "g" Ttype.Int;
      col "h" Ttype.Int;
      col "i" Ttype.Int;
    ]
    [|
      [| vi 1; vi 5; vi 3; vi 8; vi 1 |];
      [| vi 2; vi 5; vi 3; vi 9; vi 2 |];
      [| vi 3; vi 5; vi 5; vnull; vi 4 |];
    |]

let paper_t () =
  Table.create ~name:"t" ~key:[ "l" ]
    [ col "j" Ttype.Int; col "k" Ttype.Int; col "l" Ttype.Int ]
    [|
      [| vi 7; vi 2; vi 1 |];
      [| vi 9; vi 2; vi 3 |];
      [| vnull; vi 4; vi 2 |];
    |]

let paper_catalog () =
  let cat = Catalog.create () in
  Catalog.register cat (paper_r ());
  Catalog.register cat (paper_s ());
  Catalog.register cat (paper_t ());
  cat

(* ---------- a small employees/departments schema with NULLs ---------- *)

let emp_dept_catalog () =
  let cat = Catalog.create () in
  Catalog.register cat
    (Table.create ~name:"dept" ~key:[ "dept_id" ]
       [
         col "dept_id" Ttype.Int;
         col ~not_null:true "dname" Ttype.String;
         col "budget" Ttype.Int;
       ]
       [|
         [| vi 1; vs "eng"; vi 100 |];
         [| vi 2; vs "sales"; vi 50 |];
         [| vi 3; vs "hr"; vnull |];
         [| vi 4; vs "empty"; vi 10 |];
       |]);
  Catalog.register cat
    (Table.create ~name:"emp" ~key:[ "emp_id" ]
       [
         col "emp_id" Ttype.Int;
         col ~not_null:true "ename" Ttype.String;
         col "dept_id" Ttype.Int;
         col "salary" Ttype.Int;
         col "manager_id" Ttype.Int;
       ]
       [|
         [| vi 1; vs "ada"; vi 1; vi 90; vnull |];
         [| vi 2; vs "bob"; vi 1; vi 60; vi 1 |];
         [| vi 3; vs "cyd"; vi 2; vi 70; vi 1 |];
         [| vi 4; vs "dan"; vi 2; vnull; vi 3 |];
         [| vi 5; vs "eve"; vi 3; vi 80; vnull |];
         [| vi 6; vs "fay"; vnull; vi 40; vi 5 |];
       |]);
  Catalog.register cat
    (Table.create ~name:"project" ~key:[ "proj_id" ]
       [
         col "proj_id" Ttype.Int;
         col "owner_dept" Ttype.Int;
         col "lead_emp" Ttype.Int;
         col "hours" Ttype.Int;
       ]
       [|
         [| vi 1; vi 1; vi 1; vi 10 |];
         [| vi 2; vi 1; vi 2; vnull |];
         [| vi 3; vi 2; vi 3; vi 30 |];
         [| vi 4; vi 3; vnull; vi 5 |];
       |]);
  cat

(* ---------- the hand-written subquery corpus ----------

   Figure-4-style nesting shapes over the emp/dept schema: every
   linking operator, correlation shape and depth the engine supports.
   Shared by the executor-equivalence suite (every strategy must agree
   on every query) and the scheduler suite (every randomized
   interleaving must agree with serial execution). *)

let subquery_corpus =
  [
    (* flat *)
    "select ename, salary from emp where salary >= 60";
    "select * from emp, dept where emp.dept_id = dept.dept_id";
    (* EXISTS / NOT EXISTS, correlated *)
    "select dname from dept where exists (select * from emp where \
     emp.dept_id = dept.dept_id)";
    "select dname from dept where not exists (select * from emp where \
     emp.dept_id = dept.dept_id)";
    (* IN / NOT IN *)
    "select ename from emp where dept_id in (select dept_id from dept where \
     budget > 40)";
    "select ename from emp where dept_id not in (select dept_id from dept \
     where budget > 40)";
    (* quantified comparisons, correlated and not *)
    "select ename from emp where salary > all (select budget from dept)";
    "select ename from emp where salary > any (select budget from dept)";
    "select dname from dept where budget < all (select salary from emp \
     where emp.dept_id = dept.dept_id)";
    "select dname from dept where budget <> some (select salary from emp \
     where emp.dept_id = dept.dept_id)";
    (* uncorrelated EXISTS (constant truth value) *)
    "select ename from emp where exists (select * from dept where budget > \
     90)";
    "select ename from emp where not exists (select * from dept where \
     budget > 1000)";
    (* two-level linear *)
    "select dname from dept where budget < any (select salary from emp \
     where emp.dept_id = dept.dept_id and exists (select * from project \
     where project.lead_emp = emp.emp_id))";
    "select dname from dept where budget <= all (select salary from emp \
     where emp.dept_id = dept.dept_id and not exists (select * from project \
     where project.lead_emp = emp.emp_id))";
    (* two-level with non-adjacent correlation (tree-expression graph) *)
    "select dname from dept where budget < any (select salary from emp \
     where emp.dept_id = dept.dept_id and exists (select * from project \
     where project.owner_dept = dept.dept_id and project.lead_emp = \
     emp.emp_id))";
    (* tree query: two subqueries in one block, mixed signs *)
    "select dname from dept where exists (select * from emp where \
     emp.dept_id = dept.dept_id) and budget not in (select hours from \
     project where project.owner_dept = dept.dept_id)";
    "select dname from dept where not exists (select * from emp where \
     emp.dept_id = dept.dept_id and salary > 75) and budget > some (select \
     hours from project where project.owner_dept = dept.dept_id)";
    (* non-equality correlation *)
    "select dname from dept where budget > all (select hours from project \
     where project.owner_dept <> dept.dept_id)";
    (* linking attribute is an expression *)
    "select ename from emp where salary + 10 in (select budget from dept)";
    (* linked attribute is an expression *)
    "select ename from emp where salary in (select budget - 10 from dept \
     where dept.dept_id = emp.dept_id)";
    (* self join with correlation *)
    "select e1.ename from emp e1 where e1.salary >= all (select e2.salary \
     from emp e2 where e2.dept_id = e1.dept_id)";
    "select e1.ename from emp e1 where exists (select * from emp e2 where \
     e2.manager_id = e1.emp_id)";
    (* multi-table inner block *)
    "select dname from dept where budget < any (select salary from emp, \
     project where emp.emp_id = project.lead_emp and project.owner_dept = \
     dept.dept_id)";
    (* multi-table outer block *)
    "select ename, dname from emp, dept where emp.dept_id = dept.dept_id \
     and salary > all (select hours from project where project.owner_dept = \
     dept.dept_id)";
    (* local predicates of every flavor *)
    "select ename from emp where salary between 50 and 80 and dept_id in \
     (select dept_id from dept where dname in ('eng', 'hr'))";
    "select ename from emp where manager_id is null and dept_id is not null";
    (* scalar subqueries (aggregate and raw) *)
    "select ename from emp where salary > (select avg(salary) from emp e2 \
     where e2.dept_id = emp.dept_id)";
    "select ename from emp where salary < (select max(budget) from dept)";
    "select ename from emp where dept_id = (select dept_id from dept where \
     dname = 'eng')";
    "select ename from emp where salary >= (select count(*) from project)";
    "select ename from emp where salary - 50 < (select count(hours) from \
     project where project.lead_emp = emp.emp_id)";
    (* type JA: IN / NOT IN / quantified comparisons over an aggregate
       subquery — the value set is the aggregate's singleton, and the
       empty group aggregates to COUNT = 0 / others NULL rather than
       vanishing *)
    "select ename from emp where salary in (select max(budget) from dept \
     where dept.dept_id = emp.dept_id)";
    "select ename from emp where salary not in (select min(budget) from \
     dept where dept.dept_id = emp.dept_id)";
    "select ename from emp where salary > all (select avg(salary) from emp \
     e2 where e2.dept_id = emp.dept_id)";
    "select ename from emp where salary >= any (select sum(hours) from \
     project where project.lead_emp = emp.emp_id)";
    "select ename from emp where 0 in (select count(*) from project where \
     project.lead_emp = emp.emp_id)";
    "select ename from emp where 1 <= all (select count(hours) from \
     project where project.lead_emp = emp.emp_id)";
    "select dname from dept where budget not in (select count(*) from emp \
     where emp.dept_id = dept.dept_id)";
    "select dname from dept where budget > some (select sum(salary) from \
     emp where emp.dept_id = dept.dept_id and salary > 60)";
    (* JA over an uncorrelated aggregate *)
    "select ename from emp where salary in (select max(budget) from dept)";
    "select ename from emp where salary + 10 > all (select avg(hours) from \
     project)";
    (* JA with an expression aggregate argument *)
    "select ename from emp where salary in (select max(budget - 10) from \
     dept where dept.dept_id = emp.dept_id)";
    (* three levels deep, alternating signs *)
    "select dname from dept where budget < any (select salary from emp \
     where emp.dept_id = dept.dept_id and salary > all (select hours from \
     project where project.lead_emp = emp.emp_id and not exists (select * \
     from emp e3 where e3.manager_id = emp.emp_id)))";
    (* NOT over a subquery predicate (normalization) *)
    "select ename from emp where not (salary in (select budget from dept))";
    "select dname from dept where not (budget > all (select salary from \
     emp where emp.dept_id = dept.dept_id))";
    (* DISTINCT / ORDER BY / LIMIT on top of subqueries *)
    "select distinct dept_id from emp where dept_id in (select dept_id \
     from dept)";
    "select ename from emp where dept_id in (select dept_id from dept) \
     order by salary desc limit 3";
  ]

(* The TPC-H queries the plan goldens pin: Query 1, Query 2 ANY/ALL,
   Query 3 a/b/c with EXISTS and NOT EXISTS under ANY/ALL, and the four
   Query 1-JA links, with fixed parameters. *)
let tpch_plan_corpus =
  let module Q = Nra.Tpch.Queries in
  let lo, hi = Q.q1_window ~outer_fraction:0.2 in
  let q2 quant =
    Q.q2 ~quant ~size_lo:1 ~size_hi:12 ~availqty_max:2000 ~quantity:25
  in
  let q3 quant exists variant =
    Q.q3 ~quant ~exists ~variant ~size_lo:1 ~size_hi:12 ~availqty_max:2000
      ~quantity:25
  in
  [ Q.q1 ~date_lo:lo ~date_hi:hi; q2 Q.Any; q2 Q.All ]
  @ List.concat_map
      (fun variant ->
        List.concat_map
          (fun quant -> [ q3 quant true variant; q3 quant false variant ])
          [ Q.Any; Q.All ])
      [ Q.A; Q.B; Q.C ]
  @ List.map
      (fun link -> Q.q1_ja ~link ~date_lo:lo ~date_hi:hi)
      [ Q.Ja_in; Q.Ja_not_in; Q.Ja_gt_all; Q.Ja_scalar_eq ]

(* ---------- executor comparison ---------- *)

let all_strategies = List.map snd Nra.strategies

let run_all ?(strategies = all_strategies) cat sql =
  List.map
    (fun s ->
      match Nra.query ~strategy:s cat sql with
      | Ok rel -> (Nra.strategy_to_string s, Ok rel)
      | Error m -> (Nra.strategy_to_string s, Error m))
    strategies

(* Every strategy returns the first one's relation, as a bag; with
   [~reference:true], every strategy's rows are also the reference
   evaluator's, as sorted CSV. *)
let check_equivalent ?strategies ?(reference = false) cat sql =
  let results = run_all ?strategies cat sql in
  if reference then begin
    let expected =
      match Reference_eval.sorted_csv cat sql with
      | Ok csv -> csv
      | Error m -> Alcotest.failf "reference evaluator on %s: %s" sql m
    in
    List.iter
      (fun (name, res) ->
        match res with
        | Error m -> Alcotest.failf "%s failed on %s: %s" name sql m
        | Ok rel ->
            let got = Reference_eval.relation_csv rel in
            if got <> expected then
              Alcotest.failf
                "%s disagrees with the reference evaluator on:\n%s\n\
                 reference:\n%s\n%s:\n%s"
                name sql expected name got)
      results
  end;
  match results with
  | [] -> Alcotest.fail "no strategies"
  | (ref_name, ref_res) :: rest ->
      let ref_rel =
        match ref_res with
        | Ok rel -> rel
        | Error m ->
            Alcotest.fail (Printf.sprintf "%s failed on %s: %s" ref_name sql m)
      in
      List.iter
        (fun (name, res) ->
          match res with
          | Error m ->
              Alcotest.fail
                (Printf.sprintf "%s failed on %s: %s" name sql m)
          | Ok rel ->
              if not (Relation.equal_bag ref_rel rel) then
                Alcotest.fail
                  (Format.asprintf
                     "%s disagrees with %s on:@.%s@.%s result:@.%a@.%s \
                      result:@.%a"
                     name ref_name sql ref_name Relation.pp ref_rel name
                     Relation.pp rel))
        rest;
      ref_rel

(* ---------- alcotest helpers ---------- *)

let relation_testable =
  Alcotest.testable Relation.pp (fun a b -> Relation.equal_bag a b)

let value_testable = Alcotest.testable Value.pp Value.equal

let t3 = Alcotest.testable Three_valued.pp Three_valued.equal

(* ---------- allocation ----------

   Words allocated per call of [f i] for [i = 1 .. n], after one
   warm-up call [f 0] that grows whatever buffers [f] reuses: minor-heap
   words plus words allocated directly in the major heap (arrays too
   long for the minor heap).  Minor words come from [Gc.minor_words],
   which counts exactly; the minor count of [Gc.counters] undercounts
   the words allocated since the last minor collection on OCaml 5.1.
   Reading the counters allocates words of its own (the boxed floats
   and the tuple they come back in), some of which land between the
   two readings; a calibration pass makes the same two readings with
   nothing between them, and its count is subtracted, so an empty
   thunk reads 0 whatever [n].  The calls run with the Domain pool at
   size 0: the counters read only the calling domain, so words a worker
   allocated would be lost. *)
let counted_words g =
  let minor = Gc.minor_words () and _, promoted, major = Gc.counters () in
  g ();
  let minor' = Gc.minor_words () and _, promoted', major' = Gc.counters () in
  minor' -. minor +. (major' -. major) -. (promoted' -. promoted)

let words_per n f =
  with_config (fun c -> { c with domains = 0 }) @@ fun () ->
  f 0;
  let own = counted_words ignore in
  let words =
    counted_words (fun () ->
        for i = 1 to n do
          f i
        done)
  in
  (words -. own) /. float_of_int n

let rows_of rel = Relation.sorted_rows rel

let int_rows rel =
  List.map
    (fun row ->
      Array.to_list row
      |> List.map (function
           | Value.Int i -> Some i
           | Value.Null -> None
           | v -> Alcotest.fail ("expected int, got " ^ Value.to_string v)))
    (rows_of rel)

let check_rows name expected rel =
  Alcotest.(check (list (list (option int)))) name expected (int_rows rel)

(* run a flat SQL and return the relation, failing on error *)
let q cat sql =
  match Nra.query cat sql with
  | Ok rel -> rel
  | Error m -> Alcotest.fail (Printf.sprintf "query failed (%s): %s" sql m)
