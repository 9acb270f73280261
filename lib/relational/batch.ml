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
(* Null bitmaps (bit set = NULL) and selection bitmaps (bit set = keep) *)

module Bitset = struct
  type t = Bytes.t

  let create n = Bytes.make ((n + 7) / 8) '\000'

  let set b i =
    let j = i lsr 3 in
    Bytes.unsafe_set b j
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

  let get b i =
    Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let full n =
    let b = Bytes.make ((n + 7) / 8) '\255' in
    (* zero the tail bits past [n] so unions stay exact *)
    for i = n to (Bytes.length b * 8) - 1 do
      let j = i lsr 3 in
      Bytes.unsafe_set b j
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get b j) land lnot (1 lsl (i land 7))))
    done;
    b

  let inter_into ~into b =
    for j = 0 to Bytes.length into - 1 do
      Bytes.unsafe_set into j
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get into j)
           land Char.code (Bytes.unsafe_get b j)))
    done

  let union_into ~into b =
    for j = 0 to Bytes.length into - 1 do
      Bytes.unsafe_set into j
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get into j)
           lor Char.code (Bytes.unsafe_get b j)))
    done

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

  (* Write the indices of set bits, offset by [base], ascending, into
     [dst] from [at]; returns the next free slot. *)
  let indices_into ~base b dst at =
    let k = ref at in
    for j = 0 to Bytes.length b - 1 do
      let c = Char.code (Bytes.unsafe_get b j) in
      if c <> 0 then
        for bit = 0 to 7 do
          if c land (1 lsl bit) <> 0 then begin
            dst.(!k) <- base + (j lsl 3) + bit;
            incr k
          end
        done
    done;
    !k

  let indices ~base b =
    let out = Array.make (popcount b) 0 in
    ignore (indices_into ~base b out 0);
    out
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
let schema t = t.schema
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
(* Vectorized predicates.

   [filter_plan] compiles the simple conjunctive/comparison forms —
   Lit3 | Cmp over Col/Const | Is_(not_)null | In_list | Between |
   And | Or — into bitmap loops over typed columns, and returns None
   for anything else (Not does not decompose under WHERE-semantics
   [holds], Like and arithmetic scalars can raise), in which case the
   caller falls back to [Expr.holds] on materialized rows.  Within the
   subset, evaluation is total, so vectorized and row-at-a-time
   results coincide exactly, error behavior included. *)

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

type producer = lo:int -> hi:int -> Bitset.t

let const_plan b ~lo ~hi = if b then Bitset.full (hi - lo) else Bitset.create (hi - lo)

let cmp_ints op (a : int array) nulls c : producer =
  let ltk, eqk, gtk = keep_of op in
  fun ~lo ~hi ->
    let out = Bitset.create (hi - lo) in
    for i = lo to hi - 1 do
      if not (Bitset.get nulls i) then begin
        let x = Array.unsafe_get a i in
        if (if x < c then ltk else if x = c then eqk else gtk) then
          Bitset.set out (i - lo)
      end
    done;
    out

(* [cmp i]: row [i]'s cell against the constant, as a sign *)
let cmp_numbers op (cmp : int -> int) nulls : producer =
  let ltk, eqk, gtk = keep_of op in
  fun ~lo ~hi ->
    let out = Bitset.create (hi - lo) in
    for i = lo to hi - 1 do
      if not (Bitset.get nulls i) then begin
        let r = cmp i in
        if (if r < 0 then ltk else if r = 0 then eqk else gtk) then
          Bitset.set out (i - lo)
      end
    done;
    out

let cmp_strings op (a : string array) nulls c : producer =
  let ltk, eqk, gtk = keep_of op in
  fun ~lo ~hi ->
    let out = Bitset.create (hi - lo) in
    for i = lo to hi - 1 do
      if not (Bitset.get nulls i) then begin
        let r = String.compare (Array.unsafe_get a i) c in
        if (if r < 0 then ltk else if r = 0 then eqk else gtk) then
          Bitset.set out (i - lo)
      end
    done;
    out

(* Mismatched runtime types, Boxed columns: per-row Value semantics
   (still a flat loop, just with reconstructed cells). *)
let cmp_generic op colpair (c : Value.t) : producer =
 fun ~lo ~hi ->
  let out = Bitset.create (hi - lo) in
  for i = lo to hi - 1 do
    if T3.cmp op (value_at colpair i) c = T3.True then Bitset.set out (i - lo)
  done;
  out

let cmp_col_const b op ci v : producer =
  let ((col, nulls) as pair) = column b ci in
  match (col, v) with
  | _, Value.Null -> const_plan false
  | Ints a, Value.Int c -> cmp_ints op a nulls c
  | Ints a, Value.Float c ->
      cmp_numbers op
        (fun i -> Value.compare_int_float (Array.unsafe_get a i) c)
        nulls
  | Floats a, Value.Float c ->
      cmp_numbers op (fun i -> fcmp (Array.unsafe_get a i) c) nulls
  | Floats a, Value.Int c ->
      cmp_numbers op
        (fun i -> -Value.compare_int_float c (Array.unsafe_get a i))
        nulls
  | Dates a, Value.Date c -> cmp_ints op a nulls c
  | Strings a, Value.String c -> cmp_strings op a nulls c
  | Bools a, Value.Bool c ->
      let ltk, eqk, gtk = keep_of op in
      fun ~lo ~hi ->
        let out = Bitset.create (hi - lo) in
        for i = lo to hi - 1 do
          if not (Bitset.get nulls i) then begin
            let r = Bool.compare (Bytes.unsafe_get a i = '\001') c in
            if (if r < 0 then ltk else if r = 0 then eqk else gtk) then
              Bitset.set out (i - lo)
          end
        done;
        out
  | _ -> cmp_generic op pair v

let cmp_col_col b op ci cj : producer =
  let ((coli, nullsi) as pi) = column b ci in
  let ((colj, nullsj) as pj) = column b cj in
  let ltk, eqk, gtk = keep_of op in
  let masked body : producer =
   fun ~lo ~hi ->
    let out = Bitset.create (hi - lo) in
    for i = lo to hi - 1 do
      if not (Bitset.get nullsi i || Bitset.get nullsj i) then begin
        let r : int = body i in
        if (if r < 0 then ltk else if r = 0 then eqk else gtk) then
          Bitset.set out (i - lo)
      end
    done;
    out
  in
  match (coli, colj) with
  | Ints a, Ints c -> masked (fun i -> Int.compare a.(i) c.(i))
  | Dates a, Dates c -> masked (fun i -> Int.compare a.(i) c.(i))
  | Floats a, Floats c -> masked (fun i -> fcmp a.(i) c.(i))
  | Ints a, Floats c -> masked (fun i -> Value.compare_int_float a.(i) c.(i))
  | Floats a, Ints c ->
      masked (fun i -> -Value.compare_int_float c.(i) a.(i))
  | Strings a, Strings c -> masked (fun i -> String.compare a.(i) c.(i))
  | _ ->
      fun ~lo ~hi ->
        let out = Bitset.create (hi - lo) in
        for i = lo to hi - 1 do
          if T3.cmp op (value_at pi i) (value_at pj i) = T3.True then
            Bitset.set out (i - lo)
        done;
        out

let null_plan b ci ~want_null : producer =
  let _, nulls = column b ci in
  fun ~lo ~hi ->
    let out = Bitset.create (hi - lo) in
    for i = lo to hi - 1 do
      if Bitset.get nulls i = want_null then Bitset.set out (i - lo)
    done;
    out

let rec compile b (p : Expr.pred) : producer option =
  match p with
  | Expr.Lit3 t -> Some (const_plan (t = T3.True))
  | Expr.And (p, q) -> (
      match (compile b p, compile b q) with
      | Some f, Some g ->
          Some
            (fun ~lo ~hi ->
              let m = f ~lo ~hi in
              Bitset.inter_into ~into:m (g ~lo ~hi);
              m)
      | _ -> None)
  | Expr.Or (p, q) -> (
      match (compile b p, compile b q) with
      | Some f, Some g ->
          Some
            (fun ~lo ~hi ->
              let m = f ~lo ~hi in
              Bitset.union_into ~into:m (g ~lo ~hi);
              m)
      | _ -> None)
  | Expr.Cmp (op, Expr.Col i, Expr.Const v) -> Some (cmp_col_const b op i v)
  | Expr.Cmp (op, Expr.Const v, Expr.Col i) ->
      Some (cmp_col_const b (T3.flip_op op) i v)
  | Expr.Cmp (op, Expr.Col i, Expr.Col j) -> Some (cmp_col_col b op i j)
  | Expr.Cmp (op, Expr.Const u, Expr.Const v) ->
      Some (const_plan (T3.cmp op u v = T3.True))
  | Expr.Is_null (Expr.Col i) -> Some (null_plan b i ~want_null:true)
  | Expr.Is_not_null (Expr.Col i) -> Some (null_plan b i ~want_null:false)
  | Expr.Is_null (Expr.Const v) -> Some (const_plan (Value.is_null v))
  | Expr.Is_not_null (Expr.Const v) ->
      Some (const_plan (not (Value.is_null v)))
  | Expr.In_list (x, vs) ->
      (* IN over literals is exactly a disjunction of equalities *)
      compile b
        (List.fold_left
           (fun acc v -> Expr.Or (acc, Expr.Cmp (T3.Eq, x, Expr.Const v)))
           (Expr.Lit3 T3.False) vs)
  | Expr.Between (x, lo, hi) ->
      compile b (Expr.And (Expr.Cmp (T3.Ge, x, lo), Expr.Cmp (T3.Le, x, hi)))
  | _ -> None

let filter_bits pred b = if b.length = 0 then None else compile b pred

let filter_plan pred b =
  Option.map
    (fun producer ~lo ~hi -> Bitset.indices ~base:lo (producer ~lo ~hi))
    (filter_bits pred b)
