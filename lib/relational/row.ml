type t = Value.t array

let project_arr row idxs =
  let n = Array.length idxs in
  if n = 0 then [||]
  else begin
    let out = Array.make n row.(idxs.(0)) in
    for i = 1 to n - 1 do
      out.(i) <- row.(idxs.(i))
    done;
    out
  end

let project row idxs = project_arr row (Array.of_list idxs)
let concat = Array.append
let nulls n = Array.make n Value.Null

(* The comparison and hash helpers below are explicit loops or
   top-level recursions: a local [go] closure or a [fold_left] lambda
   would allocate on every call, and sorts and hash probes call these
   once per row or per comparison. *)
let rec compare_from a b la lb i =
  if i >= la || i >= lb then Int.compare la lb
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b la lb (i + 1)

let compare a b = compare_from a b (Array.length a) (Array.length b) 0
let equal a b = compare a b = 0

let hash row =
  let h = ref 17 in
  for i = 0 to Array.length row - 1 do
    h := (!h * 31) + Value.hash row.(i)
  done;
  !h

let rec compare_on_from idxs a b i =
  if i >= Array.length idxs then 0
  else
    let j = idxs.(i) in
    let c = Value.compare a.(j) b.(j) in
    if c <> 0 then c else compare_on_from idxs a b (i + 1)

let compare_on idxs a b = compare_on_from idxs a b 0
let equal_on idxs a b = compare_on idxs a b = 0

let hash_on idxs row =
  let h = ref 17 in
  for i = 0 to Array.length idxs - 1 do
    h := (!h * 31) + Value.hash row.(idxs.(i))
  done;
  !h

let rec has_null_from idxs row i =
  i < Array.length idxs
  && (Value.is_null row.(idxs.(i)) || has_null_from idxs row (i + 1))

let has_null_on idxs row = has_null_from idxs row 0

let pp ppf row =
  Format.fprintf ppf "(@[%a@])"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Value.pp)
    (Array.to_list row)
