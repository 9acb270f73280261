(* Columnar batches: structure-of-arrays mirrors of flat relations.

   A batch holds one typed, unboxed array per column plus a per-column
   null bitmap.  The morsel filter runs over these flat arrays — no
   Value.t variant dispatch or pointer chase per cell — while rows stay
   the carrier at operator boundaries: the filter gathers *original*
   rows by index, so the columnar path is bit-identical to
   row-at-a-time.

   Columns are built lazily and forced on the owning domain only
   (compilation of a filter plan forces what it needs *before*
   entering [Pool.parallel_chunks]); worker domains see only plain
   arrays.  A column is typed only when every non-null cell shares one
   Value constructor — mixed Int/Float columns fall back to [Boxed],
   which keeps [to_relation (of_relation r)] structurally exact. *)

module T3 = Three_valued

(* ------------------------------------------------------------------ *)
(* Null bitmaps (bit set = NULL)                                      *)

module Bitset = struct
  type t = Bytes.t

  let create n = Bytes.make ((n + 7) / 8) '\000'

  let set b i =
    let j = i lsr 3 in
    Bytes.unsafe_set b j
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

  let get b i =
    Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let popcount b =
    let n = ref 0 in
    for j = 0 to Bytes.length b - 1 do
      let c = ref (Char.code (Bytes.unsafe_get b j)) in
      while !c <> 0 do
        c := !c land (!c - 1);
        incr n
      done
    done;
    !n
end

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)

type col =
  | Ints of int array
  | Floats of float array
  | Strings of string array
  | Bools of Bytes.t  (** one byte per cell, ['\001'] = true *)
  | Dates of int array
  | Boxed of Value.t array
      (** mixed-constructor columns: exact but unvectorized *)

type t = {
  schema : Schema.t;
  length : int;
  cols : (col * Bitset.t) Lazy.t array;
}

let length t = t.length
let column t i = Lazy.force t.cols.(i)

(* Classify then fill: a column is typed only when every non-null cell
   shares the constructor of the first non-null one. *)
let build_column (get : int -> Value.t) n : col * Bitset.t =
  let nulls = Bitset.create n in
  let kind = ref `All_null in
  (try
     for i = 0 to n - 1 do
       match get i with
       | Value.Null -> ()
       | v ->
           let k =
             match v with
             | Value.Null -> assert false
             | Value.Bool _ -> `Bool
             | Value.Int _ -> `Int
             | Value.Float _ -> `Float
             | Value.String _ -> `String
             | Value.Date _ -> `Date
           in
           if !kind = `All_null then kind := k
           else if !kind <> k then begin
             kind := `Mixed;
             raise Exit
           end
     done
   with Exit -> ());
  let col =
    match !kind with
    | `Mixed ->
        let a = Array.make n Value.Null in
        for i = 0 to n - 1 do
          let v = get i in
          a.(i) <- v;
          if Value.is_null v then Bitset.set nulls i
        done;
        Boxed a
    | `All_null ->
        for i = 0 to n - 1 do
          Bitset.set nulls i
        done;
        Ints (Array.make n 0)
    | `Int ->
        let a = Array.make n 0 in
        for i = 0 to n - 1 do
          match get i with
          | Value.Int x -> a.(i) <- x
          | _ -> Bitset.set nulls i
        done;
        Ints a
    | `Float ->
        let a = Array.make n 0.0 in
        for i = 0 to n - 1 do
          match get i with
          | Value.Float x -> a.(i) <- x
          | _ -> Bitset.set nulls i
        done;
        Floats a
    | `String ->
        let a = Array.make n "" in
        for i = 0 to n - 1 do
          match get i with
          | Value.String x -> a.(i) <- x
          | _ -> Bitset.set nulls i
        done;
        Strings a
    | `Bool ->
        let a = Bytes.make n '\000' in
        for i = 0 to n - 1 do
          match get i with
          | Value.Bool x -> if x then Bytes.unsafe_set a i '\001'
          | _ -> Bitset.set nulls i
        done;
        Bools a
    | `Date ->
        let a = Array.make n 0 in
        for i = 0 to n - 1 do
          match get i with
          | Value.Date x -> a.(i) <- x
          | _ -> Bitset.set nulls i
        done;
        Dates a
  in
  (col, nulls)

let of_relation rel =
  let rows = Relation.rows rel in
  let n = Array.length rows in
  let arity = Schema.arity (Relation.schema rel) in
  {
    schema = Relation.schema rel;
    length = n;
    cols =
      Array.init arity (fun ci ->
          lazy (build_column (fun i -> rows.(i).(ci)) n));
  }

let column_of_values a = build_column (Array.get a) (Array.length a)

let col_length = function
  | Ints a | Dates a -> Array.length a
  | Floats a -> Array.length a
  | Strings a -> Array.length a
  | Bools a -> Bytes.length a
  | Boxed a -> Array.length a

let value_at (col, nulls) i =
  if Bitset.get nulls i then Value.Null
  else
    match col with
    | Ints a -> Value.Int a.(i)
    | Floats a -> Value.Float a.(i)
    | Strings a -> Value.String a.(i)
    | Bools a -> Value.Bool (Bytes.unsafe_get a i = '\001')
    | Dates a -> Value.Date a.(i)
    | Boxed a -> a.(i)

let to_relation t =
  let arity = Array.length t.cols in
  let cols = Array.map Lazy.force t.cols in
  Relation.make t.schema
    (Array.init t.length (fun i ->
         Array.init arity (fun c -> value_at cols.(c) i)))

(* ------------------------------------------------------------------ *)
(* Vectorized predicates: selection-vector refinement.

   [filter] compiles the simple conjunctive/comparison forms — Lit3 |
   Cmp over Col/Const | Is_(not_)null | In_list | Between | And | Or —
   into loops over typed columns, and returns None for anything else
   (Not does not decompose under WHERE-semantics [holds], Like and
   arithmetic scalars can raise), in which case the caller evaluates
   the whole predicate with [Expr.holds] row by row.  Within the subset,
   evaluation is total, so vectorized and row-at-a-time results
   coincide exactly, error behavior included.

   The selection lives in one int buffer the caller owns.  A range
   starts as every position in it; each conjunct then compacts the
   surviving positions in place, so [And] is two passes over shrinking
   lists and nothing but the buffer is written.  [Or] (and [In_list],
   its disjunction of equalities) tests each candidate position. *)

(* A compiled predicate: [test i] says whether row [i] passes, and
   [refine sel lo k] keeps the passing positions among [sel.(lo)] ...
   [sel.(k - 1)], compacted in place from [lo] in their order, and
   returns the new end. *)
type kernel = { test : int -> bool; refine : int array -> int -> int -> int }

let refine_by test sel lo k =
  let w = ref lo in
  for j = lo to k - 1 do
    let i = Array.unsafe_get sel j in
    if test i then begin
      Array.unsafe_set sel !w i;
      incr w
    end
  done;
  !w

let of_test test = { test; refine = refine_by test }
let always = { test = (fun _ -> true); refine = (fun _ _ k -> k) }
let never = { test = (fun _ -> false); refine = (fun _ lo _ -> lo) }
let const b = if b then always else never

(* Comparison results are classified once into keep-on-{lt,eq,gt}
   booleans so each typed loop is monomorphic with the op hoisted. *)
let keep_of = function
  | T3.Eq -> (false, true, false)
  | T3.Neq -> (true, false, true)
  | T3.Lt -> (true, false, false)
  | T3.Le -> (true, true, false)
  | T3.Gt -> (false, false, true)
  | T3.Ge -> (false, true, true)

(* Float comparison with primitive operators but Float.compare's total
   semantics (NaN equal to itself and below everything else). *)
let fcmp (x : float) (c : float) =
  if x < c then -1
  else if x > c then 1
  else if x = c then 0
  else if c = c then -1 (* x is NaN *)
  else if x = x then 1 (* c is NaN *)
  else 0

(* Int and date cells against a constant, and against another int
   column: the scan-heavy forms (TPC-H date windows, lineitem's
   commit/receipt/ship comparisons) get loops with no call per row. *)
let cmp_ints op (a : int array) nulls c =
  let ltk, eqk, gtk = keep_of op in
  let test i =
    (not (Bitset.get nulls i))
    &&
    let x = Array.unsafe_get a i in
    if x < c then ltk else if x = c then eqk else gtk
  in
  let refine sel lo k =
    let w = ref lo in
    for j = lo to k - 1 do
      let i = Array.unsafe_get sel j in
      if not (Bitset.get nulls i) then begin
        let x = Array.unsafe_get a i in
        if if x < c then ltk else if x = c then eqk else gtk then begin
          Array.unsafe_set sel !w i;
          incr w
        end
      end
    done;
    !w
  in
  { test; refine }

let cmp_int_cols op (a : int array) na (b : int array) nb =
  let ltk, eqk, gtk = keep_of op in
  let test i =
    (not (Bitset.get na i || Bitset.get nb i))
    &&
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    if x < y then ltk else if x = y then eqk else gtk
  in
  let refine sel lo k =
    let w = ref lo in
    for j = lo to k - 1 do
      let i = Array.unsafe_get sel j in
      if not (Bitset.get na i || Bitset.get nb i) then begin
        let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
        if if x < y then ltk else if x = y then eqk else gtk then begin
          Array.unsafe_set sel !w i;
          incr w
        end
      end
    done;
    !w
  in
  { test; refine }

(* [cmp i]: row [i]'s non-null cells compared, as a sign *)
let cmp_signs op (cmp : int -> int) nulls_at =
  let ltk, eqk, gtk = keep_of op in
  of_test (fun i ->
      (not (nulls_at i))
      &&
      let r = cmp i in
      if r < 0 then ltk else if r = 0 then eqk else gtk)

(* Mismatched runtime types, Boxed columns: per-row Value semantics
   (still a flat loop, just with reconstructed cells). *)
let cmp_generic op x y =
  of_test (fun i -> T3.cmp op (x i) (y i) = T3.True)

let cmp_col_const b op ci v =
  let ((col, nulls) as pair) = column b ci in
  let signs cmp = cmp_signs op cmp (Bitset.get nulls) in
  match (col, v) with
  | _, Value.Null -> never
  | Ints a, Value.Int c | Dates a, Value.Date c -> cmp_ints op a nulls c
  | Ints a, Value.Float c ->
      signs (fun i -> Value.compare_int_float (Array.unsafe_get a i) c)
  | Floats a, Value.Float c -> signs (fun i -> fcmp (Array.unsafe_get a i) c)
  | Floats a, Value.Int c ->
      signs (fun i -> -Value.compare_int_float c (Array.unsafe_get a i))
  | Strings a, Value.String c ->
      signs (fun i -> String.compare (Array.unsafe_get a i) c)
  | Bools a, Value.Bool c ->
      signs (fun i -> Bool.compare (Bytes.unsafe_get a i = '\001') c)
  | _ -> cmp_generic op (value_at pair) (fun _ -> v)

let cmp_col_col b op ci cj =
  let ((coli, nullsi) as pi) = column b ci in
  let ((colj, nullsj) as pj) = column b cj in
  let signs cmp =
    cmp_signs op cmp (fun i -> Bitset.get nullsi i || Bitset.get nullsj i)
  in
  match (coli, colj) with
  | Ints a, Ints c | Dates a, Dates c -> cmp_int_cols op a nullsi c nullsj
  | Floats a, Floats c -> signs (fun i -> fcmp a.(i) c.(i))
  | Ints a, Floats c -> signs (fun i -> Value.compare_int_float a.(i) c.(i))
  | Floats a, Ints c -> signs (fun i -> -Value.compare_int_float c.(i) a.(i))
  | Strings a, Strings c -> signs (fun i -> String.compare a.(i) c.(i))
  | _ -> cmp_generic op (value_at pi) (value_at pj)

let null_test b ci ~want_null =
  let _, nulls = column b ci in
  of_test (fun i -> Bitset.get nulls i = want_null)

let operand = function Expr.Col _ | Expr.Const _ -> true | _ -> false

(* the subset, decided before any column is forced *)
let rec vectorizable (p : Expr.pred) =
  match p with
  | Expr.Lit3 _ -> true
  | Expr.And (p, q) | Expr.Or (p, q) -> vectorizable p && vectorizable q
  | Expr.Cmp (_, x, y) -> operand x && operand y
  | Expr.Is_null x | Expr.Is_not_null x | Expr.In_list (x, _) -> operand x
  | Expr.Between (x, lo, hi) -> operand x && operand lo && operand hi
  | Expr.Not _ | Expr.Like _ -> false

let rec compile b (p : Expr.pred) =
  match p with
  | Expr.Lit3 t -> const (t = T3.True)
  | Expr.And (p, q) ->
      let p = compile b p and q = compile b q in
      {
        test = (fun i -> p.test i && q.test i);
        refine = (fun sel lo k -> q.refine sel lo (p.refine sel lo k));
      }
  | Expr.Or (p, q) ->
      let p = compile b p and q = compile b q in
      of_test (fun i -> p.test i || q.test i)
  | Expr.Cmp (op, Expr.Col i, Expr.Const v) -> cmp_col_const b op i v
  | Expr.Cmp (op, Expr.Const v, Expr.Col i) ->
      cmp_col_const b (T3.flip_op op) i v
  | Expr.Cmp (op, Expr.Col i, Expr.Col j) -> cmp_col_col b op i j
  | Expr.Cmp (op, Expr.Const u, Expr.Const v) ->
      const (T3.cmp op u v = T3.True)
  | Expr.Is_null (Expr.Col i) -> null_test b i ~want_null:true
  | Expr.Is_not_null (Expr.Col i) -> null_test b i ~want_null:false
  | Expr.Is_null (Expr.Const v) -> const (Value.is_null v)
  | Expr.Is_not_null (Expr.Const v) -> const (not (Value.is_null v))
  | Expr.In_list (x, vs) ->
      (* IN over literals is exactly a disjunction of equalities *)
      compile b
        (List.fold_left
           (fun acc v -> Expr.Or (acc, Expr.Cmp (T3.Eq, x, Expr.Const v)))
           (Expr.Lit3 T3.False) vs)
  | Expr.Between (x, lo, hi) ->
      compile b (Expr.And (Expr.Cmp (T3.Ge, x, lo), Expr.Cmp (T3.Le, x, hi)))
  | _ -> invalid_arg "Batch.compile: outside the vectorizable subset"

let filter pred b =
  if not (vectorizable pred) then None
  else
    let k = compile b pred in
    Some
      (fun sel ~lo ~hi ->
        for i = lo to hi - 1 do
          Array.unsafe_set sel i i
        done;
        k.refine sel lo hi)
