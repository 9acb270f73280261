type nulls = [ `Group | `Skip ]

type t = {
  rows : Row.t array;
  sel : int array option;
  pos : int array;
  head : int array;
  mask : int;
  next : int array;
  length : int;
  linked : int;
}

let row_in rows sel j =
  match sel with None -> rows.(j) | Some s -> rows.(Array.unsafe_get s j)

let row t j = row_in t.rows t.sel j

let length t = t.length
let linked t = t.linked

let buckets ?buckets ~pos m =
  match buckets with
  | Some b -> Scratch.pow2_at_least 1 b
  | None -> if Array.length pos = 0 then 1 else Scratch.pow2_at_least 16 m

let build ~nulls ?sel ?tick ~pos ~head ~buckets ~next rows =
  let length = match sel with None -> Array.length rows | Some (_, c) -> c in
  let sel = Option.map fst sel and group = nulls = `Group in
  let mask = buckets - 1 and linked = ref 0 in
  Array.fill head 0 buckets (-1);
  (* last to first, so each chain runs in row order *)
  for j = length - 1 downto 0 do
    (match tick with Some f -> f () | None -> ());
    let r = row_in rows sel j in
    if group || not (Row.has_null_on pos r) then begin
      let b = Row.hash_on pos r land mask in
      next.(j) <- head.(b);
      head.(b) <- j;
      incr linked
    end
  done;
  { rows; sel; pos; head; mask; next; length; linked = !linked }

let with_scratch ~nulls ?sel ?buckets:b ?tick ~pos rows f =
  let m = match sel with None -> Array.length rows | Some (_, c) -> c in
  let nb = buckets ?buckets:b ~pos m in
  Scratch.with_ints nb @@ fun head ->
  Scratch.with_ints m @@ fun next ->
  f (build ~nulls ?sel ?tick ~pos ~head ~buckets:nb ~next rows)

(* The walks are top-level recursions, so a probe allocates nothing:
   [seek] is the first entry from [j] on whose key equals the probe
   row's at [ppos], or -1. *)
let rec keys_equal pos r ppos prow i =
  i >= Array.length pos
  || Value.compare r.(pos.(i)) prow.(ppos.(i)) = 0
     && keys_equal pos r ppos prow (i + 1)

let rec seek t ppos prow j =
  if j < 0 || keys_equal t.pos (row t j) ppos prow 0 then j
  else seek t ppos prow t.next.(j)

(* under [`Skip] no linked key holds NULL, so a probe key with one
   finds nothing *)
let first t ppos prow =
  seek t ppos prow t.head.(Row.hash_on ppos prow land t.mask)

let next_equal t ppos prow j = seek t ppos prow t.next.(j)
let first_entry t j = first t t.pos (row t j)

let distinct t =
  let n = ref 0 in
  for j = 0 to t.length - 1 do
    if first_entry t j = j then incr n
  done;
  !n
