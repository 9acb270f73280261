open Nra_relational

type t = { bounds : Value.t array }

let equi_depth ?(buckets = 32) len nth =
  if len = 0 then None
  else begin
    let n = max 1 (min buckets len) in
    (* boundary i sits after ~i/n of the sorted values: equi-depth *)
    let bounds =
      Array.init (n + 1) (fun i ->
          nth (if i = 0 then 0 else min (len - 1) ((i * len / n) - 1)))
    in
    Some { bounds }
  end

let buckets t = Array.length t.bounds - 1
let bounds t = t.bounds

(* numeric position for within-bucket interpolation; strings (and any
   future non-numeric type) have no metric, the caller uses 0.5 *)
let numeric = function
  | Value.Int _ | Value.Float _ | Value.Date _ | Value.Bool _ -> true
  | Value.String _ | Value.Null -> false

let[@inline] position = function
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | Value.Date d -> float_of_int d
  | Value.Bool b -> if b then 1.0 else 0.0
  | Value.String _ | Value.Null -> Float.nan

(* [min 1.0 (max 0.0 x)], without boxing [x] for the polymorphic [min]
   and [max] *)
let clamp x =
  let m = if 0.0 >= x then 0.0 else x in
  if 1.0 <= m then 1.0 else m

let frac_below t v =
  let b = t.bounds in
  let n = Array.length b - 1 in
  if Value.is_null v || Value.compare v b.(0) < 0 then 0.0
  else if Value.compare v b.(n) >= 0 then 1.0
  else begin
    (* largest k with bounds.(k) <= v; buckets are small, scan linearly *)
    let k = ref 0 in
    for i = 0 to n - 1 do
      if Value.compare b.(i) v <= 0 then k := i
    done;
    let k = !k in
    let within =
      if numeric v && numeric b.(k) && numeric b.(k + 1) then
        let x = position v in
        let lo = position b.(k) and hi = position b.(k + 1) in
        if hi > lo then clamp ((x -. lo) /. (hi -. lo)) else 0.5
      else 0.5
    in
    (float_of_int k +. within) /. float_of_int n
  end

let frac_between t lo hi =
  max 0.0 (frac_below t hi -. frac_below t lo)
