type column = {
  table : string;
  name : string;
  ty : Ttype.t;
  not_null : bool;
  is_key : bool;
}

type t = column array

exception Ambiguous of string
exception Not_found_col of string

let column ?(table = "") ?(not_null = false) ?(is_key = false) name ty =
  { table; name; ty; not_null; is_key }

let of_columns l = Array.of_list l
let columns s = s
let arity = Array.length
let col s i = s.(i)
let append = Array.append
let project s idxs = Array.of_list (List.map (fun i -> s.(i)) idxs)
let rename_table alias s = Array.map (fun c -> { c with table = alias }) s

let qualified_name c =
  if c.table = "" then c.name else c.table ^ "." ^ c.name

let matches ?table name c =
  String.equal c.name name
  && match table with None -> true | Some t -> String.equal c.table t

let ref_name ?table name =
  match table with None -> name | Some t -> t ^ "." ^ name

(* the first column from [i] on that matches, or -1: lookups build no
   list *)
let rec first_match s table name i =
  if i >= Array.length s then -1
  else if matches ?table name s.(i) then i
  else first_match s table name (i + 1)

let find s ?table name =
  let i = first_match s table name 0 in
  if i < 0 then raise (Not_found_col (ref_name ?table name))
  else if first_match s table name (i + 1) >= 0 then
    raise (Ambiguous (ref_name ?table name))
  else i

let find_opt s ?table name =
  let i = first_match s table name 0 in
  if i >= 0 && first_match s table name (i + 1) < 0 then Some i else None

let mem s ?table name = first_match s table name 0 >= 0

let equal_names a b =
  arity a = arity b
  && Array.for_all2
       (fun x y -> String.equal x.table y.table && String.equal x.name y.name)
       a b

let pp ppf s =
  Format.fprintf ppf "(@[%a@])"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf c ->
         Format.fprintf ppf "%s:%a%s" (qualified_name c) Ttype.pp c.ty
           (if c.not_null then "!" else "")))
    (Array.to_list s)
