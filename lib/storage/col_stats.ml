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

let collect ?buckets values =
  let rows = Array.length values in
  let rpp = max 1 (Iosim.config ()).Iosim.rows_per_page in
  (* one pass: per distinct value remember the last page seen and how
     many distinct pages it spans (rows arrive in physical order, so a
     new page for a value is exactly a change of page) *)
  let seen : (Value.t, int * int) Hashtbl.t = Hashtbl.create 1024 in
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
        match Hashtbl.find_opt seen v with
        | None -> Hashtbl.add seen v (page, 1)
        | Some (last, n) ->
            if last <> page then Hashtbl.replace seen v (page, n + 1)
      end)
    values;
  let ndv = Hashtbl.length seen in
  let total_pages =
    Hashtbl.fold (fun _ (_, n) acc -> acc + n) seen 0
  in
  let pages_per_value =
    if ndv = 0 then 0.0 else float_of_int total_pages /. float_of_int ndv
  in
  {
    rows;
    nulls = !nulls;
    ndv;
    min_v = !min_v;
    max_v = !max_v;
    pages_per_value;
    hist = Histogram.build ?buckets values;
  }

let null_frac t =
  if t.rows = 0 then 0.0 else float_of_int t.nulls /. float_of_int t.rows

let eq_sel t =
  if t.ndv = 0 then 0.0 else (1.0 -. null_frac t) /. float_of_int t.ndv

let clamp x = min 1.0 (max 0.0 x)

(* P(col <= v) among non-NULL rows *)
let frac_le t v =
  match t.hist with
  | Some h -> Histogram.frac_below h v
  | None -> (
      (* no histogram (un-analyzed path never builds t, so this is the
         all-NULL case or a degenerate build): interpolate on min/max *)
      match (t.min_v, t.max_v) with
      | Some lo, Some hi -> (
          match (Histogram.build ~buckets:1 [| lo; hi |], v) with
          | Some h, v -> Histogram.frac_below h v
          | None, _ -> 0.5)
      | _ -> 0.5)

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
