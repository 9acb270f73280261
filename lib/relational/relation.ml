type t = { schema : Schema.t; rows : Row.t array }

let make schema rows =
  let n = Schema.arity schema in
  Array.iter
    (fun r ->
      if Array.length r <> n then
        invalid_arg
          (Printf.sprintf "Relation.make: row arity %d <> schema arity %d"
             (Array.length r) n))
    rows;
  { schema; rows }

let rename t schema =
  if Schema.arity schema <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Relation.rename: schema arity %d <> %d"
         (Schema.arity schema) (Schema.arity t.schema));
  { t with schema }

let of_rows schema rows = make schema (Array.of_list rows)
let schema t = t.schema
let rows t = t.rows
let cardinality t = Array.length t.rows
let is_empty t = Array.length t.rows = 0

(* The first violation in row [ri], in column order; [None] allocates
   nothing, so a clean pass over the rows allocates nothing either. *)
let rec row_violation (cols : Schema.column array) ri (row : Row.t) ci =
  if ci = Array.length cols then None
  else
    let c = cols.(ci) and v = row.(ci) in
    if not (Ttype.admits c.ty v) then
      Some
        (Printf.sprintf "row %d, column %s: %s does not admit %s" ri
           (Schema.qualified_name c) (Ttype.to_string c.ty)
           (Value.to_string v))
    else if c.not_null && Value.is_null v then
      Some
        (Printf.sprintf "row %d, column %s: NULL violates NOT NULL" ri
           (Schema.qualified_name c))
    else row_violation cols ri row (ci + 1)

let rec first_violation cols rows only n k =
  if k = n then Ok ()
  else
    let ri = match only with None -> k | Some ids -> ids.(k) in
    match row_violation cols ri rows.(ri) 0 with
    | Some msg -> Error msg
    | None -> first_violation cols rows only n (k + 1)

let typecheck ?only t =
  let n =
    match only with None -> Array.length t.rows | Some ids -> Array.length ids
  in
  first_violation (Schema.columns t.schema) t.rows only n 0

let filter p t = { t with rows = Array.of_list (List.filter p (Array.to_list t.rows)) }

let map_rows schema f t = make schema (Array.map f t.rows)

let gather t sel count =
  { t with rows = Array.init count (fun k -> t.rows.(Array.unsafe_get sel k)) }

let project t idxs =
  {
    schema = Schema.project t.schema idxs;
    rows = Array.map (fun r -> Row.project r idxs) t.rows;
  }

let append a b =
  if Schema.arity a.schema <> Schema.arity b.schema then
    invalid_arg "Relation.append: arity mismatch";
  { a with rows = Array.append a.rows b.rows }

let sort_by idxs t =
  let rows = Array.copy t.rows in
  let cmp a b = Row.compare_on idxs a b in
  (* Array.stable_sort keeps the original order of equal rows *)
  Array.stable_sort cmp rows;
  { t with rows }

let dedup t =
  let pos = Array.init (Schema.arity t.schema) Fun.id in
  Keyed.with_scratch ~nulls:`Group ~pos t.rows @@ fun keyed ->
  Scratch.with_ints (Array.length t.rows) @@ fun kept ->
  let count = ref 0 in
  for j = 0 to Array.length t.rows - 1 do
    if Keyed.first_entry keyed j = j then begin
      kept.(!count) <- j;
      incr count
    end
  done;
  gather t kept !count

let sorted_rows t = List.sort Row.compare (Array.to_list t.rows)

let equal_bag a b =
  cardinality a = cardinality b
  && List.equal Row.equal (sorted_rows a) (sorted_rows b)

let equal_set a b =
  let canon t = List.sort_uniq Row.compare (Array.to_list t.rows) in
  List.equal Row.equal (canon a) (canon b)

let pp ppf t =
  let cols = Schema.columns t.schema in
  let header = Array.map Schema.qualified_name cols in
  let cells = Array.map (fun r -> Array.map Value.to_string r) t.rows in
  let widths =
    Array.mapi
      (fun i h ->
        Array.fold_left
          (fun w row -> max w (String.length row.(i)))
          (String.length h) cells)
      header
  in
  let line sep fill =
    Array.iteri
      (fun i w ->
        Format.pp_print_string ppf (if i = 0 then sep else sep);
        Format.pp_print_string ppf (String.make (w + 2) fill))
      widths;
    Format.pp_print_string ppf sep;
    Format.pp_print_newline ppf ()
  in
  let row_out cells_row =
    Array.iteri
      (fun i w ->
        Format.fprintf ppf "| %s%s " cells_row.(i)
          (String.make (w - String.length cells_row.(i)) ' '))
      widths;
    Format.pp_print_string ppf "|";
    Format.pp_print_newline ppf ()
  in
  line "+" '-';
  row_out header;
  line "+" '-';
  Array.iter row_out cells;
  line "+" '-';
  Format.fprintf ppf "(%d rows)" (Array.length t.rows)

(* CSV: minimal quoting — strings are quoted with doubled quotes only when
   needed; NULL is the bare word NULL. *)

let csv_escape s =
  (* quote whenever the content could be misread: separators, quotes,
     line breaks, or the bare NULL keyword *)
  if
    s = "NULL"
    || String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  then begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

let value_to_csv = function
  | Value.Null -> "NULL"
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%.12g" f
  | Value.String s -> csv_escape s
  | Value.Date d -> Value.string_of_date d

let to_csv t =
  let b = Buffer.create 1024 in
  let cols = Schema.columns t.schema in
  Buffer.add_string b
    (String.concat ","
       (Array.to_list (Array.map Schema.qualified_name cols)));
  Buffer.add_char b '\n';
  Array.iter
    (fun row ->
      Buffer.add_string b
        (String.concat "," (Array.to_list (Array.map value_to_csv row)));
      Buffer.add_char b '\n')
    t.rows;
  Buffer.contents b

(* Scan the whole text into records of (content, was_quoted) fields; a
   quoted field may contain commas, doubled quotes and line breaks. *)
let scan_csv text =
  let n = String.length text in
  let records = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let quoted = ref false in
  let started = ref false in
  let flush_field () =
    fields := (Buffer.contents buf, !quoted) :: !fields;
    Buffer.clear buf;
    quoted := false;
    started := false
  in
  let flush_record () =
    flush_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let rec go i in_quotes =
    if i >= n then begin
      if !started || !fields <> [] then flush_record ()
    end
    else
      let c = text.[i] in
      if in_quotes then
        if c = '"' then
          if i + 1 < n && text.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            go (i + 2) true
          end
          else go (i + 1) false
        else begin
          Buffer.add_char buf c;
          go (i + 1) true
        end
      else if c = '"' then begin
        quoted := true;
        started := true;
        go (i + 1) true
      end
      else if c = ',' then begin
        flush_field ();
        started := true (* a separator implies another field follows *);
        go (i + 1) false
      end
      else if c = '\n' then begin
        flush_record ();
        go (i + 1) false
      end
      else if c = '\r' && not in_quotes then go (i + 1) false
      else begin
        Buffer.add_char buf c;
        started := true;
        go (i + 1) false
      end
  in
  go 0 false;
  List.rev !records

let value_of_csv (ty : Ttype.t) (s, was_quoted) =
  if s = "NULL" && not was_quoted then Ok Value.Null
  else
    match ty with
    | Ttype.Bool -> (
        match bool_of_string_opt s with
        | Some b -> Ok (Value.Bool b)
        | None -> Error (Printf.sprintf "bad bool %S" s))
    | Ttype.Int -> (
        match int_of_string_opt s with
        | Some i -> Ok (Value.Int i)
        | None -> Error (Printf.sprintf "bad int %S" s))
    | Ttype.Float -> (
        match float_of_string_opt s with
        | Some f -> Ok (Value.Float f)
        | None -> Error (Printf.sprintf "bad float %S" s))
    | Ttype.String -> Ok (Value.String s)
    | Ttype.Date -> (
        match Value.date_of_string s with
        | v -> Ok v
        | exception Value.Type_error m -> Error m)

let of_csv schema text =
  match scan_csv text with
  | [] -> Error "empty CSV"
  | _header :: data ->
      let cols = Schema.columns schema in
      let n = Array.length cols in
      let exception Fail of string in
      (try
         let parse_record ri fields =
           if List.length fields <> n then
             raise
               (Fail
                  (Printf.sprintf "record %d: %d fields, expected %d" (ri + 2)
                     (List.length fields) n));
           let row =
             List.mapi
               (fun ci f ->
                 match value_of_csv cols.(ci).Schema.ty f with
                 | Ok v -> v
                 | Error m ->
                     raise (Fail (Printf.sprintf "record %d: %s" (ri + 2) m)))
               fields
           in
           Array.of_list row
         in
         Ok (make schema (Array.of_list (List.mapi parse_record data)))
       with Fail m -> Error m)
