open Nra_relational

type func =
  | Count_star
  | Count of Expr.scalar
  | Sum of Expr.scalar
  | Avg of Expr.scalar
  | Min of Expr.scalar
  | Max of Expr.scalar

type spec = { func : func; as_name : string }

let scalar_type schema s =
  match s with
  | Expr.Col i -> Some (Schema.col schema i).Schema.ty
  | Expr.Const (Value.Int _) -> Some Ttype.Int
  | Expr.Const (Value.Float _) -> Some Ttype.Float
  | Expr.Const (Value.String _) -> Some Ttype.String
  | Expr.Const (Value.Date _) -> Some Ttype.Date
  | Expr.Const (Value.Bool _) -> Some Ttype.Bool
  | Expr.Const Value.Null -> None
  | Expr.Add _ | Expr.Sub _ | Expr.Mul _ | Expr.Neg _ -> Some Ttype.Float
  | Expr.Div _ -> Some Ttype.Float

let output_type schema = function
  | Count_star | Count _ -> Ttype.Int
  | Avg _ -> Ttype.Float
  | Sum e | Min e | Max e ->
      Option.value ~default:Ttype.Float (scalar_type schema e)

(* A running aggregate: [n] counts the rows ([Count_star]) or the
   non-NULL argument values seen; [v] is the running value — the sum
   (from [Int 0] for AVG, from the first value for SUM), the minimum
   or the maximum.  Each step applies the same [Value] operation, in
   the same order, as folding the whole list would. *)
type acc = { func : func; mutable n : int; mutable v : Value.t }

let init_value = function Avg _ -> Value.Int 0 | _ -> Value.Null
let start func = { func; n = 0; v = init_value func }

let reset acc =
  acc.n <- 0;
  acc.v <- init_value acc.func

let step acc x =
  match acc.func with
  | Count_star -> acc.n <- acc.n + 1
  | _ when Value.is_null x -> ()
  | Count _ -> acc.n <- acc.n + 1
  | Sum _ ->
      acc.v <- (if acc.n = 0 then x else Value.add acc.v x);
      acc.n <- acc.n + 1
  | Avg _ ->
      acc.v <- Value.add acc.v x;
      acc.n <- acc.n + 1
  | Min _ ->
      if acc.n = 0 || Value.compare x acc.v < 0 then acc.v <- x;
      acc.n <- acc.n + 1
  | Max _ ->
      if acc.n = 0 || Value.compare x acc.v > 0 then acc.v <- x;
      acc.n <- acc.n + 1

let arg_value func row =
  match func with
  | Count_star -> Value.Null
  | Count e | Sum e | Avg e | Min e | Max e -> Expr.eval_scalar row e

let step_row acc row = step acc (arg_value acc.func row)

let finish acc =
  match acc.func with
  | Count_star | Count _ -> Value.Int acc.n
  | Sum _ | Min _ | Max _ -> acc.v
  | Avg _ ->
      if acc.n = 0 then Value.Null
      else
        Value.div (Value.mul acc.v (Value.Float 1.0)) (Value.Int acc.n)

let out_schema input_schema ~keys specs =
  let key_cols = List.map (Schema.col input_schema) keys in
  let agg_cols =
    List.map
      (fun { func; as_name } ->
        Schema.column as_name (output_type input_schema func))
      specs
  in
  Schema.of_columns (key_cols @ agg_cols)

let group_by ~keys specs rel =
  let kpos = Array.of_list keys and rows = Relation.rows rel in
  let funcs = Array.of_list (List.map (fun (s : spec) -> s.func) specs) in
  (* groups are numbered by their first rows, in order of first
     occurrence: [group.(j)] is the number of first row [j]'s group and
     [firsts.(g)] group [g]'s first row; each group steps one
     accumulator per aggregate as its rows arrive *)
  Keyed.with_scratch ~nulls:`Group ~pos:kpos rows @@ fun keyed ->
  let n = Array.length rows in
  Scratch.with_ints n @@ fun group ->
  Scratch.with_ints n @@ fun firsts ->
  let count = ref 0 in
  for j = 0 to n - 1 do
    let f = Keyed.first_entry keyed j in
    if f = j then begin
      group.(j) <- !count;
      firsts.(!count) <- j;
      incr count
    end
    else group.(j) <- group.(f)
  done;
  let accs = Array.init !count (fun _ -> Array.map start funcs) in
  Array.iteri
    (fun j row -> Array.iter (fun acc -> step_row acc row) accs.(group.(j)))
    rows;
  let schema = out_schema (Relation.schema rel) ~keys specs in
  Relation.make schema
    (Array.mapi
       (fun g accs ->
         Array.append (Row.project_arr rows.(firsts.(g)) kpos)
           (Array.map finish accs))
       accs)

let global specs rel =
  let accs =
    Array.of_list (List.map (fun (s : spec) -> start s.func) specs)
  in
  Array.iter
    (fun row -> Array.iter (fun acc -> step_row acc row) accs)
    (Relation.rows rel);
  let schema = out_schema (Relation.schema rel) ~keys:[] specs in
  Relation.make schema [| Array.map finish accs |]
