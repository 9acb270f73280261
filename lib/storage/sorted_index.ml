open Nra_relational

(* [perm] holds the ids of the non-NULL-keyed rows, stably sorted by
   key: (key, id) order.  Keys are read in place through [rows]. *)
type t = {
  positions : int array;
  rows : Row.t array; (* the indexed relation's rows, shared *)
  perm : int array;
}

type bound = Unbounded | Incl of Value.t | Excl of Value.t

let build rel positions =
  let rows = Relation.rows rel in
  let n = ref 0 in
  Array.iter
    (fun row -> if not (Row.has_null_on positions row) then incr n)
    rows;
  let perm = Array.make !n 0 in
  let k = ref 0 in
  Array.iteri
    (fun id row ->
      if not (Row.has_null_on positions row) then begin
        perm.(!k) <- id;
        incr k
      end)
    rows;
  Array.stable_sort
    (fun a b -> Row.compare_on positions rows.(a) rows.(b))
    perm;
  { positions; rows; perm }

let cardinality t = Array.length t.perm

(* First index of [perm] whose row satisfies [above]; [perm] is sorted
   so the predicate is monotone (a run of false then a run of true). *)
let lower_bound t above =
  let lo = ref 0 and hi = ref (Array.length t.perm) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if above t.rows.(t.perm.(mid)) then hi := mid else lo := mid + 1
  done;
  !lo

(* ids [perm.(start)] .. [perm.(stop - 1)], in perm order *)
let ids t start stop =
  let acc = ref [] in
  for i = stop - 1 downto start do
    acc := t.perm.(i) :: !acc
  done;
  !acc

let range t ~lo ~hi =
  let first_cmp row v = Value.compare row.(t.positions.(0)) v in
  let start =
    match lo with
    | Unbounded -> 0
    | Incl v -> lower_bound t (fun row -> first_cmp row v >= 0)
    | Excl v -> lower_bound t (fun row -> first_cmp row v > 0)
  in
  let stop =
    match hi with
    | Unbounded -> Array.length t.perm
    | Incl v -> lower_bound t (fun row -> first_cmp row v > 0)
    | Excl v -> lower_bound t (fun row -> first_cmp row v >= 0)
  in
  ids t start stop

(* compare row's first [Array.length key] key cells with [key] *)
let rec prefix_cmp t key row i =
  if i >= Array.length key then 0
  else
    let c = Value.compare row.(t.positions.(i)) key.(i) in
    if c <> 0 then c else prefix_cmp t key row (i + 1)

let probe t key_row =
  let k = Array.length key_row in
  if k = 0 || k > Array.length t.positions
     || Array.exists Value.is_null key_row
  then []
  else begin
    let start = lower_bound t (fun row -> prefix_cmp t key_row row 0 >= 0) in
    let stop = lower_bound t (fun row -> prefix_cmp t key_row row 0 > 0) in
    (* a full key's run is already in id order; a prefix's is in
       (remaining key, id) order *)
    if k = Array.length t.positions then ids t start stop
    else begin
      let run = Array.sub t.perm start (stop - start) in
      Array.sort Int.compare run;
      Array.to_list run
    end
  end
