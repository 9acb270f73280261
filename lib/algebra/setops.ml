open Nra_relational

let check_arity a b =
  if Schema.arity (Relation.schema a) <> Schema.arity (Relation.schema b)
  then invalid_arg "set operation: arity mismatch"

(* [f probe count] over a table of [b]'s rows keyed on every column:
   [probe r] is the first of [b]'s rows equal to [r] (NULL equal to
   NULL), or -1, and [count.(e)] starts as the number of [b]'s rows
   equal to first row [e] *)
let with_bag a b f =
  check_arity a b;
  let pos = Array.init (Schema.arity (Relation.schema a)) Fun.id in
  Keyed.with_scratch ~nulls:`Group ~pos (Relation.rows b) @@ fun keyed ->
  let m = Keyed.length keyed in
  Scratch.with_ints m @@ fun count ->
  Array.fill count 0 m 0;
  for j = 0 to m - 1 do
    let e = Keyed.first_entry keyed j in
    count.(e) <- count.(e) + 1
  done;
  f (Keyed.first keyed pos) count

(* take one of [r]'s copies out of the bag, if one is left *)
let take probe count r =
  let e = probe r in
  e >= 0
  && count.(e) > 0
  &&
  (count.(e) <- count.(e) - 1;
   true)

let union a b =
  check_arity a b;
  Relation.dedup (Relation.append a (Relation.make (Relation.schema a) (Relation.rows b)))

let union_all a b =
  check_arity a b;
  Relation.append a (Relation.make (Relation.schema a) (Relation.rows b))

let intersect a b =
  with_bag a b @@ fun probe _ ->
  Relation.dedup (Relation.filter (fun r -> probe r >= 0) a)

let intersect_all a b =
  with_bag a b @@ fun probe count -> Relation.filter (take probe count) a

let except a b =
  with_bag a b @@ fun probe _ ->
  Relation.dedup (Relation.filter (fun r -> probe r < 0) a)

let divide r ~by ~on =
  if on = [] then invalid_arg "divide: empty column mapping";
  let yr = Array.of_list (List.map fst on) in
  let ys = Array.of_list (List.map snd on) in
  let r_schema = Relation.schema r in
  let x_positions =
    List.init (Schema.arity r_schema) Fun.id
    |> List.filter (fun i -> not (Array.mem i yr))
  in
  let x_arr = Array.of_list x_positions in
  let rows = Relation.rows r in
  let n = Array.length rows in
  (* the distinct y-tuples that every group must cover *)
  Keyed.with_scratch ~nulls:`Group ~pos:ys (Relation.rows by)
  @@ fun divisor ->
  let needed = Keyed.distinct divisor in
  (* r's rows by their x part, and by their (x, y) pair: a row covers a
     new y-tuple of its group when it is the first of its pair *)
  Keyed.with_scratch ~nulls:`Group ~pos:x_arr rows @@ fun xs ->
  Keyed.with_scratch ~nulls:`Group ~pos:(Array.append x_arr yr) rows
  @@ fun xys ->
  (* [covered.(g)]: the divisor tuples group [g] (its first row) covers,
     -1 until the group is made; a group is made at its first row whose
     y-tuple is in the divisor, or at its first row when the divisor is
     empty (∀ over ∅) *)
  Scratch.with_ints n @@ fun covered ->
  Array.fill covered 0 n (-1);
  let order = ref [] in
  for j = 0 to n - 1 do
    let covers = Keyed.first divisor yr rows.(j) >= 0 in
    if covers || needed = 0 then begin
      let g = Keyed.first_entry xs j in
      if covered.(g) < 0 then begin
        covered.(g) <- 0;
        order := g :: !order
      end;
      if covers && Keyed.first_entry xys j = j then
        covered.(g) <- covered.(g) + 1
    end
  done;
  let out =
    List.rev !order
    |> List.filter_map (fun g ->
           if covered.(g) >= needed then Some (Row.project_arr rows.(g) x_arr)
           else None)
  in
  Relation.of_rows (Schema.project r_schema x_positions) out

let except_all a b =
  with_bag a b @@ fun probe count ->
  Relation.filter (fun r -> not (take probe count r)) a
