(* The reference for ANALYZE's per-column statistics: the original
   boxed collector, kept as a specification.  One pass over the values
   in physical order counts NULLs, tracks min/max with [Value.compare],
   and keeps per distinct value (under [Value.equal], the engine's
   equality) the last page seen and the distinct pages spanned; the
   histogram sorts every non-NULL value and reads the equi-depth
   boundaries off the sorted array.  Deliberately naive: O(n log n)
   over boxed values, a hash table entry per page change. *)

open Nra

module Tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type t = {
  rows : int;
  nulls : int;
  ndv : int;
  min_v : Value.t option;
  max_v : Value.t option;
  pages_per_value : float;
  bounds : Value.t array option;
}

let bounds ?(buckets = 32) values =
  let vs =
    Array.of_seq
      (Seq.filter (fun v -> not (Value.is_null v)) (Array.to_seq values))
  in
  if Array.length vs = 0 then None
  else begin
    Array.sort Value.compare vs;
    let len = Array.length vs in
    let n = max 1 (min buckets len) in
    Some
      (Array.init (n + 1) (fun i ->
           if i = 0 then vs.(0) else vs.(min (len - 1) ((i * len / n) - 1))))
  end

let collect ?buckets ~rows_per_page values =
  let rpp = max 1 rows_per_page in
  let seen : (int * int) Tbl.t = Tbl.create 1024 in
  let nulls = ref 0 in
  let min_v = ref None and max_v = ref None in
  Array.iteri
    (fun i v ->
      if Value.is_null v then incr nulls
      else begin
        (match !min_v with
        | None -> min_v := Some v
        | Some m -> if Value.compare v m < 0 then min_v := Some v);
        (match !max_v with
        | None -> max_v := Some v
        | Some m -> if Value.compare v m > 0 then max_v := Some v);
        let page = i / rpp in
        match Tbl.find_opt seen v with
        | None -> Tbl.add seen v (page, 1)
        | Some (last, n) -> if last <> page then Tbl.replace seen v (page, n + 1)
      end)
    values;
  let ndv = Tbl.length seen in
  let total_pages = Tbl.fold (fun _ (_, n) acc -> acc + n) seen 0 in
  {
    rows = Array.length values;
    nulls = !nulls;
    ndv;
    min_v = !min_v;
    max_v = !max_v;
    pages_per_value =
      (if ndv = 0 then 0.0 else float_of_int total_pages /. float_of_int ndv);
    bounds = bounds ?buckets values;
  }
