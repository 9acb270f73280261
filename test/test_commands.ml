(* DDL / DML commands through the facade: CREATE TABLE, INSERT (values
   and select), DELETE (with subqueries), DROP, and the invariants they
   must maintain (key uniqueness, NOT NULL, index rebuilds). *)

open Nra
open Test_support

let exec cat sql =
  match Nra.exec cat sql with
  | Ok r -> r
  | Error m -> Alcotest.fail (Printf.sprintf "exec failed (%s): %s" sql m)

let expect_error cat sql =
  match Nra.exec cat sql with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail ("accepted: " ^ sql)

let count = function
  | Nra.Count n -> n
  | _ -> Alcotest.fail "expected a row count"

let rows = function
  | Nra.Rows r -> r
  | _ -> Alcotest.fail "expected rows"

let fresh () =
  let cat = Catalog.create () in
  ignore
    (exec cat
       "create table books (id int, title string not null, pages int, \
        primary key (id))");
  cat

let test_create_and_insert () =
  let cat = fresh () in
  Alcotest.(check bool) "registered" true (Catalog.mem cat "books");
  let n =
    count
      (exec cat
         "insert into books values (1, 'sicp', 657), (2, 'taocp', null), \
          (3, 'okasaki', 220)")
  in
  Alcotest.(check int) "inserted" 3 n;
  let r = rows (exec cat "select title from books where pages is null") in
  Alcotest.(check int) "null pages" 1 (Relation.cardinality r)

let test_insert_select () =
  let cat = fresh () in
  ignore (exec cat "insert into books values (1, 'a', 10), (2, 'b', 20)");
  ignore
    (exec cat
       "create table big_books (id int, title string, pages int, primary \
        key (id))");
  let n =
    count
      (exec cat
         "insert into big_books select id, title, pages from books where \
          pages > 15")
  in
  Alcotest.(check int) "insert-select" 1 n;
  let r = rows (exec cat "select title from big_books") in
  check_rows "contents" [ [] ] (Relation.project r []);
  Alcotest.(check int) "one row" 1 (Relation.cardinality r)

let test_delete () =
  let cat = fresh () in
  ignore
    (exec cat "insert into books values (1, 'a', 10), (2, 'b', 20), (3, 'c', 30)");
  let n = count (exec cat "delete from books where pages >= 20") in
  Alcotest.(check int) "deleted" 2 n;
  let r = rows (exec cat "select id from books") in
  check_rows "survivor" [ [ Some 1 ] ] r;
  (* unconditional delete *)
  let n = count (exec cat "delete from books") in
  Alcotest.(check int) "cleared" 1 n;
  (* the keys (29, 568) and (272, 629) hash alike under Row.hash: both
     rows go *)
  ignore
    (exec cat
       "create table duo (a int, b int, v int, primary key (a, b))");
  ignore
    (exec cat "insert into duo values (29, 568, 1), (272, 629, 2), (1, 1, 3)");
  let n = count (exec cat "delete from duo where v < 3") in
  Alcotest.(check int) "keys that hash alike" 2 n;
  check_rows "the other key survives" [ [ Some 3 ] ]
    (rows (exec cat "select v from duo"))

(* DELETE keeps the survivors in table order: 10,000 rows whose keys
   are a permutation, a fifth of them deleted (all, then none, of the
   rest on the two follow-up statements). *)
let test_delete_keeps_order () =
  let cat = Catalog.create () in
  let n = 10_000 in
  let original =
    Array.init n (fun i -> [| vi (i * 7919 mod n); vi (i mod 10) |])
  in
  Catalog.register cat
    (Table.create ~name:"big" ~key:[ "k" ]
       [ col "k" Ttype.Int; col "v" Ttype.Int ]
       original);
  let table_rows () = Relation.rows (Table.relation (Catalog.table cat "big")) in
  Alcotest.(check int) "deleted" (n / 5)
    (count (exec cat "delete from big where v = 3 or v = 7"));
  let expected =
    List.filter
      (fun r -> r.(1) <> vi 3 && r.(1) <> vi 7)
      (Array.to_list original)
  in
  Alcotest.(check bool) "survivors in table order" true
    (Array.to_list (table_rows ()) = expected);
  Alcotest.(check int) "nothing left to delete" 0
    (count (exec cat "delete from big where v = 3"));
  Alcotest.(check bool) "a delete of nothing keeps every row" true
    (Array.to_list (table_rows ()) = expected);
  Alcotest.(check int) "delete everything" (n - (n / 5))
    (count (exec cat "delete from big"));
  Alcotest.(check int) "empty" 0 (Array.length (table_rows ()))

let test_delete_with_subquery () =
  let cat = fresh () in
  ignore (exec cat "insert into books values (1, 'a', 10), (2, 'b', 20)");
  ignore
    (exec cat
       "create table loans (lid int, book int, primary key (lid))");
  ignore (exec cat "insert into loans values (1, 2)");
  let n =
    count
      (exec cat
         "delete from books where not exists (select * from loans where \
          loans.book = books.id)")
  in
  Alcotest.(check int) "unloaned books deleted" 1 n;
  let r = rows (exec cat "select id from books") in
  check_rows "loaned book survives" [ [ Some 2 ] ] r

let test_constraints () =
  let cat = fresh () in
  ignore (exec cat "insert into books values (1, 'a', 10)");
  (* duplicate key *)
  expect_error cat "insert into books values (1, 'dup', 0)";
  (* NOT NULL violation *)
  expect_error cat "insert into books values (2, null, 0)";
  (* type violation *)
  expect_error cat "insert into books values ('x', 'a', 0)";
  (* arity violation *)
  expect_error cat "insert into books values (2, 'a')";
  (* failed inserts must not have modified the table *)
  let r = rows (exec cat "select count(*) from books") in
  check_rows "unchanged" [ [ Some 1 ] ] r

(* A write checks only the rows it introduces; the error still names
   the first bad row by its position in the new table, as a check of
   every row would. *)
let test_error_texts () =
  let cat = fresh () in
  ignore
    (exec cat "insert into books values (1, 'a', 10), (2, 'b', 20), (3, 'c', 30)");
  List.iter
    (fun (sql, want) ->
      match Nra.exec cat sql with
      | Error m -> Alcotest.(check string) sql want m
      | Ok _ -> Alcotest.fail ("accepted: " ^ sql))
    [
      ( "insert into books values (4, 'd', 'x')",
        "table books: row 3, column books.pages: int does not admit 'x'" );
      ( "insert into books values (4, null, 1)",
        "table books: row 3, column books.title: NULL violates NOT NULL" );
      ( "insert into books values (2, 'dup', 0)",
        "table books: duplicate primary key (2)" );
      ( "insert into books values (4, 'd', 1), (5, null, 1)",
        "table books: row 4, column books.title: NULL violates NOT NULL" );
      ( "update books set pages = 'x' where id = 2",
        "table books: row 1, column books.pages: int does not admit 'x'" );
      ( "update books set title = null where id >= 2",
        "table books: row 1, column books.title: NULL violates NOT NULL" );
      ( "update books set id = 1 where id = 3",
        "table books: duplicate primary key (1)" );
    ];
  let r = rows (exec cat "select count(*) from books") in
  check_rows "unchanged" [ [ Some 3 ] ] r

let test_ddl_errors () =
  let cat = fresh () in
  expect_error cat "create table books (id int, primary key (id))";
  expect_error cat "create table nokey (id int)";
  expect_error cat "create table bad (id frob, primary key (id))";
  expect_error cat "drop table nosuch";
  expect_error cat "insert into nosuch values (1)";
  expect_error cat "delete from nosuch";
  ignore (exec cat "drop table books");
  Alcotest.(check bool) "dropped" false (Catalog.mem cat "books")

let test_indexes_rebuilt () =
  let cat = fresh () in
  Catalog.create_sorted_index cat ~table:"books" [ "pages" ];
  ignore (exec cat "insert into books values (1, 'a', 10), (2, 'b', 20)");
  (match Catalog.sorted_index_on cat ~table:"books" "pages" with
  | Some idx -> Alcotest.(check int) "index sees new rows" 2
                  (Sorted_index.cardinality (Catalog.force idx))
  | None -> Alcotest.fail "secondary index lost by insert");
  ignore (exec cat "delete from books where id = 1");
  match Catalog.sorted_index_on cat ~table:"books" "pages" with
  | Some idx ->
      Alcotest.(check int) "index sees deletion" 1
        (Sorted_index.cardinality (Catalog.force idx))
  | None -> Alcotest.fail "secondary index lost by delete"

let test_update () =
  let cat = fresh () in
  ignore
    (exec cat "insert into books values (1, 'a', 10), (2, 'b', 20), (3, 'c', 30)");
  let n = count (exec cat "update books set pages = pages + 5 where pages >= 20") in
  Alcotest.(check int) "two updated" 2 n;
  let r = rows (exec cat "select pages from books order by pages") in
  check_rows "incremented" [ [ Some 10 ]; [ Some 25 ]; [ Some 35 ] ] r;
  (* multiple assignments see the pre-update row *)
  ignore
    (exec cat
       "create table pairs (id int, x int, y int, primary key (id))");
  ignore (exec cat "insert into pairs values (1, 1, 2)");
  ignore (exec cat "update pairs set x = y, y = x");
  let r = rows (exec cat "select x, y from pairs") in
  check_rows "swap" [ [ Some 2; Some 1 ] ] r;
  (* WHERE with a subquery *)
  ignore (exec cat "create table hot (hid int, primary key (hid))");
  ignore (exec cat "insert into hot values (1)");
  let n =
    count
      (exec cat
         "update books set title = 'HOT' where id in (select hid from hot)")
  in
  Alcotest.(check int) "one via subquery" 1 n;
  let r = rows (exec cat "select title from books where id = 1") in
  Alcotest.check value_testable "retitled" (vs "HOT")
    (Relation.rows r).(0).(0);
  (* the keys (29, 568) and (272, 629) hash alike under Row.hash: both
     rows change *)
  ignore
    (exec cat
       "create table duo (a int, b int, v int, primary key (a, b))");
  ignore
    (exec cat "insert into duo values (29, 568, 1), (272, 629, 2), (1, 1, 3)");
  let n = count (exec cat "update duo set v = v + 10 where v < 3") in
  Alcotest.(check int) "keys that hash alike" 2 n;
  check_rows "both changed" [ [ Some 3 ]; [ Some 11 ]; [ Some 12 ] ]
    (rows (exec cat "select v from duo"))

let test_update_constraints () =
  let cat = fresh () in
  ignore (exec cat "insert into books values (1, 'a', 10)");
  (* NOT NULL violation caught, table unchanged *)
  expect_error cat "update books set title = null";
  expect_error cat "update books set nosuch = 1";
  expect_error cat "update nosuch set pages = 1";
  let r = rows (exec cat "select title from books") in
  Alcotest.check value_testable "unchanged" (vs "a")
    (Relation.rows r).(0).(0)

let test_varchar_and_types () =
  let cat = Catalog.create () in
  ignore
    (exec cat
       "create table misc (id integer, name varchar(20), price real, ok \
        boolean, d date, primary key (id))");
  let n =
    count
      (exec cat
         "insert into misc values (1, 'x', 1.5, true, date '2020-02-29')")
  in
  Alcotest.(check int) "row in" 1 n;
  let r = rows (exec cat "select d from misc where ok = true") in
  Alcotest.(check int) "queried back" 1 (Relation.cardinality r)

let () =
  Alcotest.run "commands"
    [
      ( "dml",
        [
          Alcotest.test_case "create + insert" `Quick test_create_and_insert;
          Alcotest.test_case "insert-select" `Quick test_insert_select;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "delete keeps table order" `Quick
            test_delete_keeps_order;
          Alcotest.test_case "delete with subquery" `Quick
            test_delete_with_subquery;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "update constraints" `Quick
            test_update_constraints;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "constraints" `Quick test_constraints;
          Alcotest.test_case "error texts" `Quick test_error_texts;
          Alcotest.test_case "ddl errors" `Quick test_ddl_errors;
          Alcotest.test_case "indexes rebuilt" `Quick test_indexes_rebuilt;
          Alcotest.test_case "types" `Quick test_varchar_and_types;
        ] );
    ]
