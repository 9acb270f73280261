open Nra_relational
module T3 = Three_valued

type t = {
  rows : int;
  nulls : int;
  ndv : int;
  min_v : Value.t option;
  max_v : Value.t option;
  pages_per_value : float;
  hist : Histogram.t option;
}

(* A column's keys, read in place by row position.  [hash] and [same]
   are the engine's equality on the column's kind ([Value.equal]:
   -0.0 = 0.0 and NaN = NaN on floats, Int 1 = Float 1.0 on a mixed
   column), and [value] boxes one key. *)
type keys = {
  hash : int -> int;
  same : int -> int -> bool;
  value : int -> Value.t;
}

(* agrees with [Float.compare _ _ = 0]: both zeros hash alike, and so
   does every NaN *)
let hash_float f =
  if f = 0.0 then 0
  else if Float.is_nan f then 1
  else Int64.to_int (Int64.bits_of_float f)

let keys_of : Batch.col -> keys = function
  | Batch.Ints a ->
      {
        hash = (fun i -> a.(i));
        same = (fun i j -> a.(i) = a.(j));
        value = (fun i -> Value.Int a.(i));
      }
  | Batch.Dates a ->
      {
        hash = (fun i -> a.(i));
        same = (fun i j -> a.(i) = a.(j));
        value = (fun i -> Value.Date a.(i));
      }
  | Batch.Floats a ->
      {
        hash = (fun i -> hash_float a.(i));
        same = (fun i j -> Float.compare a.(i) a.(j) = 0);
        value = (fun i -> Value.Float a.(i));
      }
  | Batch.Strings a ->
      {
        hash = (fun i -> Value.hash_string a.(i));
        same = (fun i j -> String.equal a.(i) a.(j));
        value = (fun i -> Value.String a.(i));
      }
  | Batch.Bools a ->
      {
        hash = (fun i -> Char.code (Bytes.get a i));
        same = (fun i j -> Bytes.get a i = Bytes.get a j);
        value = (fun i -> Value.Bool (Bytes.get a i = '\001'));
      }
  | Batch.Boxed a ->
      {
        hash = (fun i -> Value.hash a.(i));
        same = (fun i j -> Value.equal a.(i) a.(j));
        value = (fun i -> a.(i));
      }

(* Groups live in one int buffer, three slots each: the group's first
   row, its row count, and the last page it was seen on. *)
let first gs g = gs.(3 * g)
let count gs g = gs.((3 * g) + 1)

(* [index] is an open-addressing table (linear probing, power-of-two
   size [mask + 1], at most half full; the buffer may be longer, left
   from a wider column) from a key to its group, -1 marking an empty
   cell.  [slot] is the cell holding row [i]'s group, or the empty cell
   where it goes. *)
let rec slot k gs index mask i c =
  let g = index.(c) in
  if g < 0 || k.same (first gs g) i then c
  else slot k gs index mask i ((c + 1) land mask)

let rec pow2_at_least b n = if 1 lsl b >= n then b else pow2_at_least (b + 1) n

(* Stable bottom-up merge sort of the slots [0, n) of a buffer of
   [2n] slots, the other half taking each pass's output: [le i j]
   compares the keys in slots [i] and [j], and [move i j] copies slot
   [i] to slot [j].  Returns the half (0 or [n]) holding the result. *)
let merge_sort ~le ~move n =
  let src = ref 0 and dst = ref n and width = ref 1 in
  while !width < n do
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) and hi = min n (!lo + (2 * !width)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || le (!src + !i) (!src + !j)) then begin
          move (!src + !i) (!dst + k);
          incr i
        end
        else begin
          move (!src + !j) (!dst + k);
          incr j
        end
      done;
      lo := hi
    done;
    let s = !src in
    src := !dst;
    dst := s;
    width := 2 * !width
  done;
  !src

(* Group ids [0, ndv) in key order, into [ids.(0 .. ndv-1)] ([ids]
   holds at least [2 * ndv] cells).  Each group's key is copied next
   to its id, so the merges read keys in sequence rather than through
   the group's first row into the column.  Floats get their own copy
   loop and move, so their keys stay unboxed in a float array. *)
let sort_groups col gs ndv ids =
  for g = 0 to ndv - 1 do
    ids.(g) <- g
  done;
  let sort ~le ~move =
    let half = merge_sort ~le ~move ndv in
    if half <> 0 then Array.blit ids half ids 0 ndv
  in
  let gather key dummy =
    let keys = Array.make (2 * ndv) dummy in
    for g = 0 to ndv - 1 do
      keys.(g) <- key (first gs g)
    done;
    keys
  in
  let move keys i j =
    keys.(j) <- keys.(i);
    ids.(j) <- ids.(i)
  in
  match col with
  | Batch.Ints a | Batch.Dates a ->
      let keys = gather (Array.get a) 0 in
      sort ~le:(fun i j -> keys.(i) <= keys.(j)) ~move:(move keys)
  | Batch.Floats a ->
      let keys = Array.make (2 * ndv) 0.0 in
      for g = 0 to ndv - 1 do
        keys.(g) <- a.(first gs g)
      done;
      sort
        ~le:(fun i j -> Float.compare keys.(i) keys.(j) <= 0)
        ~move:(fun i j ->
          keys.(j) <- keys.(i);
          ids.(j) <- ids.(i))
  | Batch.Strings a ->
      let keys = gather (Array.get a) "" in
      sort ~le:(fun i j -> String.compare keys.(i) keys.(j) <= 0) ~move:(move keys)
  | Batch.Bools a ->
      let keys = gather (Bytes.get a) '\000' in
      sort ~le:(fun i j -> Char.compare keys.(i) keys.(j) <= 0) ~move:(move keys)
  | Batch.Boxed a ->
      let keys = gather (Array.get a) Value.Null in
      sort ~le:(fun i j -> Value.compare keys.(i) keys.(j) <= 0) ~move:(move keys)

(* The pass's two int buffers, kept across the columns of one table
   and dropped with it: borrowing them from [Scratch] instead would
   keep the longest pair in its free list for the rest of the run. *)
type work = { mutable groups : int array; mutable cells : int array }

let work () = { groups = [||]; cells = [||] }

let of_column ?buckets work (col, nulls) =
  let rows = Batch.col_length col in
  let nulls_n = Batch.Bitset.popcount nulls in
  let live = rows - nulls_n in
  if live = 0 then
    {
      rows;
      nulls = nulls_n;
      ndv = 0;
      min_v = None;
      max_v = None;
      pages_per_value = 0.0;
      hist = None;
    }
  else begin
    let rpp = max 1 (Iosim.config ()).Iosim.rows_per_page in
    let k = keys_of col in
    let bits = pow2_at_least 1 (2 * live) in
    let size = 1 lsl bits in
    if Array.length work.groups < 3 * live then
      work.groups <- Array.make (3 * live) 0;
    if Array.length work.cells < size then work.cells <- Array.make size 0;
    let gs = work.groups and index = work.cells in
    Array.fill index 0 size (-1);
    (* one pass in physical order: a group spans one more distinct
       page exactly when its row lands on a page other than its last *)
    let ndv = ref 0 and total_pages = ref 0 in
    for i = 0 to rows - 1 do
      if not (Batch.Bitset.get nulls i) then begin
        let page = i / rpp in
        let c =
          slot k gs index (size - 1) i
            ((k.hash i * 0x2545F4914F6CDD1D) lsr (63 - bits))
        in
        let g = index.(c) in
        if g < 0 then begin
          let g = !ndv in
          index.(c) <- g;
          gs.(3 * g) <- i;
          gs.((3 * g) + 1) <- 1;
          gs.((3 * g) + 2) <- page;
          incr ndv;
          incr total_pages
        end
        else begin
          gs.((3 * g) + 1) <- gs.((3 * g) + 1) + 1;
          if gs.((3 * g) + 2) <> page then begin
            gs.((3 * g) + 2) <- page;
            incr total_pages
          end
        end
      end
    done;
    (* the table is spent: its first [2 * ndv] cells sort the groups
       by key *)
    let ndv = !ndv in
    sort_groups col gs ndv index;
    (* the sorted values, run-length: group [index.(!at)] covers the
       positions below [!upto] not covered by earlier groups *)
    let at = ref 0 and upto = ref (count gs index.(0)) in
    let nth p =
      while p >= !upto do
        incr at;
        upto := !upto + count gs index.(!at)
      done;
      k.value (first gs index.(!at))
    in
    {
      rows;
      nulls = nulls_n;
      ndv;
      min_v = Some (k.value (first gs index.(0)));
      max_v = Some (k.value (first gs index.(ndv - 1)));
      pages_per_value = float_of_int !total_pages /. float_of_int ndv;
      hist = Histogram.equi_depth ?buckets live nth;
    }
  end

let collect ?buckets values =
  of_column ?buckets (work ()) (Batch.column_of_values values)

let null_frac t =
  if t.rows = 0 then 0.0 else float_of_int t.nulls /. float_of_int t.rows

let eq_sel t =
  if t.ndv = 0 then 0.0 else (1.0 -. null_frac t) /. float_of_int t.ndv

(* [min 1.0 (max 0.0 x)], without boxing [x] for the polymorphic [min]
   and [max] *)
let clamp x =
  let m = if 0.0 >= x then 0.0 else x in
  if 1.0 <= m then 1.0 else m

(* P(col <= v) among non-NULL rows *)
let frac_le t v =
  match t.hist with
  | Some h -> Histogram.frac_below h v
  | None -> 0.5 (* all NULL: nothing to place [v] against *)

let sel_cmp t op v =
  if Value.is_null v then (0.0, 1.0)
  else
    let nf = null_frac t in
    let eq = if t.ndv = 0 then 0.0 else 1.0 /. float_of_int t.ndv in
    let le = frac_le t v in
    let frac_nonnull =
      match op with
      | T3.Eq -> eq
      | T3.Neq -> 1.0 -. eq
      | T3.Le -> le
      | T3.Lt -> le -. eq
      | T3.Gt -> 1.0 -. le
      | T3.Ge -> 1.0 -. le +. eq
    in
    (clamp (clamp frac_nonnull *. (1.0 -. nf)), nf)

let pp ppf t =
  Format.fprintf ppf
    "@[<h>rows %d, nulls %d, ndv %d, ppv %.2f, range %a .. %a@]" t.rows
    t.nulls t.ndv t.pages_per_value
    (Format.pp_print_option
       ~none:(fun ppf () -> Format.pp_print_string ppf "-")
       Value.pp)
    t.min_v
    (Format.pp_print_option
       ~none:(fun ppf () -> Format.pp_print_string ppf "-")
       Value.pp)
    t.max_v
