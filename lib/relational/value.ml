type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of int

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let is_null = function Null -> true | _ -> false

let type_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2 (* ints and floats live in one numeric order *)
  | String _ -> 3
  | Date _ -> 4

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | Date _ -> "date"

(* An int against a float by their exact values, so numeric equality
   is an equivalence: through [float_of_int], 2^53 + 1 would equal the
   float 2^53, which equals the int 2^53.  NaN sorts below every number,
   as [Float.compare] puts it. *)
let two_62 = 4.611686018427387904e18 (* [max_int] < 2^62 = -[min_int] *)

let compare_int_float x y =
  if Float.is_nan y || y < -.two_62 then 1
  else if y >= two_62 then -1
  else
    (* -2^62 <= y < 2^62: its integral part is an exact int *)
    let i = Float.to_int y in
    if x <> i then Int.compare x i else Float.compare (Float.of_int i) y

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | String x, String y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  | _ -> Int.compare (type_rank a) (type_rank b)

let equal a b = compare a b = 0

(* Ints and floats that compare equal must hash alike ([compare] puts
   both in one numeric order).  Both constructors therefore route
   through the same rule on the value's float image: an integral float
   below 2^53 (where int<->float conversion is exact) hashes as its
   int, anything else as the float itself.  For ints below 2^53 —
   every int in practice — this is a direct [Hashtbl.hash i] with no
   intermediate float boxing. *)

let max_exact_int = 0x20_0000_0000_0000 (* 2^53 *)
let max_exact_float = 9.007199254740992e15 (* 2^53 *)

let hash_float f =
  if Float.is_integer f && Float.abs f < max_exact_float then
    Hashtbl.hash (int_of_float f)
  else Hashtbl.hash f

let hash_int i =
  if i > -max_exact_int && i < max_exact_int then Hashtbl.hash i
  else hash_float (float_of_int i)

let hash_string (s : string) = Hashtbl.hash s

let hash = function
  | Null -> 0x9e3779b9
  | Bool b -> if b then 3 else 5
  | Int i -> hash_int i
  | Float f -> hash_float f
  | String s -> hash_string s
  | Date d -> 7 * Hashtbl.hash d

let cmp3 a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | _ -> Some (compare a b)

let as_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> type_error "expected a numeric value, got %s" (type_name v)

let arith int_op float_op a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (int_op x y)
  | (Int _ | Float _), (Int _ | Float _) ->
      Float (float_op (as_float a) (as_float b))
  | _ ->
      type_error "arithmetic on non-numeric values (%s, %s)" (type_name a)
        (type_name b)

let add a b =
  match (a, b) with
  | Date d, Int n | Int n, Date d -> Date (d + n)
  | _ -> arith ( + ) ( +. ) a b

let sub a b =
  match (a, b) with
  | Date d, Int n -> Date (d - n)
  | Date x, Date y -> Int (x - y)
  | _ -> arith ( - ) ( -. ) a b

let mul = arith ( * ) ( *. )

let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _, Int 0 -> Null
  | _, Float f when f = 0.0 -> Null
  | Int x, Int y -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (as_float a /. as_float b)
  | _ ->
      type_error "division on non-numeric values (%s, %s)" (type_name a)
        (type_name b)

let neg = function
  | Null -> Null
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | v -> type_error "negation of non-numeric value (%s)" (type_name v)

(* Civil-date conversion (Howard Hinnant's algorithm), so that generated
   and parsed dates agree without depending on Unix. *)

let days_from_civil ~y ~m ~d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (m + 9) mod 12 in
  let doy = (((153 * mp) + 2) / 5) + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  let y = if m <= 2 then y + 1 else y in
  (y, m, d)

let date_of_string s =
  let fail () = type_error "malformed date %S (expected YYYY-MM-DD)" s in
  if String.length s <> 10 || s.[4] <> '-' || s.[7] <> '-' then fail ();
  let int_at off len =
    match int_of_string_opt (String.sub s off len) with
    | Some i -> i
    | None -> fail ()
  in
  let y = int_at 0 4 and m = int_at 5 2 and d = int_at 8 2 in
  if m < 1 || m > 12 || d < 1 || d > 31 then fail ();
  Date (days_from_civil ~y ~m ~d)

let string_of_date days =
  let y, m, d = civil_from_days days in
  Printf.sprintf "%04d-%02d-%02d" y m d

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | String s -> Format.fprintf ppf "'%s'" s
  | Date d -> Format.pp_print_string ppf (string_of_date d)

let to_string v = Format.asprintf "%a" pp v
