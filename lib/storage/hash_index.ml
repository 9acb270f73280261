open Nra_relational

(* A flat chained table over row ids, laid out like the hash join's
   ([Join.with_matches]): [hash.(id)] is row [id]'s key hash,
   [next.(id)] the next id of its bucket chain (-1 ends it), and
   [head.(b)] the first id of bucket [b].  Keys are never copied: an
   entry's key is read in place as [rows.(id).(positions.(i))].  Rows
   are linked from the first to the last, so every chain runs in
   descending id order and a walk that conses yields ascending ids. *)

type t = {
  positions : int array;
  rows : Row.t array; (* the indexed relation's rows, shared *)
  head : int array;
  next : int array;
  hash : int array;
  count : int;
}

let rec pow2_at_least k n = if k >= n then k else pow2_at_least (2 * k) n
let slot head h = h land (Array.length head - 1)

let build rel positions =
  let rows = Relation.rows rel in
  let n = Array.length rows in
  let head = Array.make (pow2_at_least 1 n) (-1) in
  let next = Array.make n (-1) and hash = Array.make n 0 in
  let count = ref 0 in
  for id = 0 to n - 1 do
    let row = rows.(id) in
    if not (Row.has_null_on positions row) then begin
      let h = Row.hash_on positions row in
      let s = slot head h in
      hash.(id) <- h;
      next.(id) <- head.(s);
      head.(s) <- id;
      incr count
    end
  done;
  { positions; rows; head; next; hash; count = !count }

let positions t = t.positions
let cardinality t = t.count

(* does row [id]'s key equal [key_row]'s cells? *)
let rec key_matches t row key_row i =
  i >= Array.length t.positions
  || Value.compare row.(t.positions.(i)) key_row.(i) = 0
     && key_matches t row key_row (i + 1)

let rec collect t key_row h id acc =
  if id < 0 then acc
  else
    collect t key_row h t.next.(id)
      (if t.hash.(id) = h && key_matches t t.rows.(id) key_row 0 then
         id :: acc
       else acc)

let probe t key_row =
  if
    Array.length key_row <> Array.length t.positions
    || Array.exists Value.is_null key_row
  then []
  else
    let h = Row.hash key_row in
    collect t key_row h t.head.(slot t.head h) []

(* is some id below [id] on [id]'s chain (which runs downward from
   [j]) keyed equal to it? *)
let rec has_earlier_equal t id j =
  j >= 0
  && (j < id
      && t.hash.(j) = t.hash.(id)
      && Row.equal_on t.positions t.rows.(j) t.rows.(id)
     || has_earlier_equal t id t.next.(j))

let first_duplicate t =
  let n = Array.length t.rows in
  let rec from id =
    if id >= n then None
    else if
      (not (Row.has_null_on t.positions t.rows.(id)))
      && has_earlier_equal t id t.head.(slot t.head t.hash.(id))
    then Some id
    else from (id + 1)
  in
  from 0
