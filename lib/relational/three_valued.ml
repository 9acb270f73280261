type t = True | False | Unknown

let of_bool b = if b then True else False
let to_bool = function True -> true | False | Unknown -> false

let not_ = function True -> False | False -> True | Unknown -> Unknown

let and_ a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, True -> True
  | _ -> Unknown

let or_ a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, False -> False
  | _ -> Unknown

let conj l = List.fold_left and_ True l
let disj l = List.fold_left or_ False l

let equal (a : t) (b : t) = a = b

let pp ppf v =
  Format.pp_print_string ppf
    (match v with True -> "true" | False -> "false" | Unknown -> "unknown")

type cmpop = Eq | Neq | Lt | Le | Gt | Ge

let cmpop_to_string = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let negate_op = function
  | Eq -> Neq
  | Neq -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let flip_op = function
  | Eq -> Eq
  | Neq -> Neq
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

(* NULL first, then a plain comparison: no [int option] per call *)
let cmp op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Unknown
  | _ ->
      let c = Value.compare a b in
      of_bool
        (match op with
        | Eq -> c = 0
        | Neq -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0)
