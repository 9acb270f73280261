open Nra_relational
module T3 = Three_valued

type t = {
  key_schema : Schema.t;
  elem_schema : Schema.t;
  groups : (Row.t * Row.t array) array;
}

let schemas rel ~by ~keep =
  let s = Relation.schema rel in
  ( Schema.project s (Array.to_list by),
    Schema.project s (Array.to_list keep) )

let nest_sort ~by ~keep rel =
  let key_schema, elem_schema = schemas rel ~by ~keep in
  let sorted = Relation.sort_by by rel in
  let rows = Relation.rows sorted in
  let n = Array.length rows in
  let groups = ref [] in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    let key = Row.project_arr rows.(start) by in
    let elems = ref [] in
    while !i < n && Row.equal_on by rows.(start) rows.(!i) do
      elems := Row.project_arr rows.(!i) keep :: !elems;
      incr i
    done;
    groups := (key, Array.of_list (List.rev !elems)) :: !groups
  done;
  { key_schema; elem_schema; groups = Array.of_list (List.rev !groups) }

type mode = Discard | Pad of int array

let padded pad key =
  let row = Array.copy key in
  Array.iter (fun i -> row.(i) <- Value.Null) pad;
  row

(* σ keeps a group's key when its verdict is True; σ̄ keeps every key,
   NULL-padding the owning block's positions of a failed one *)
let emit mode verdict key out =
  if T3.to_bool verdict then key :: out
  else
    match mode with Discard -> out | Pad pad -> padded pad key :: out

(* one fold per selection, restarted per group *)
let select mode pred ~marker t =
  let f = Link_pred.fold pred in
  let out = ref [] in
  Array.iter
    (fun (key, elems) ->
      Nra_guard.Guard.tick ();
      Link_pred.start f ~outer:key;
      Array.iter (Link_pred.step_elem f ~marker) elems;
      out := emit mode (Link_pred.finish f) key !out)
    t.groups;
  Relation.of_rows t.key_schema (List.rev !out)

let pp ppf t =
  Format.fprintf ppf "@[<v>nest %a keeping %a@,%a@]" Schema.pp t.key_schema
    Schema.pp t.elem_schema
    (Format.pp_print_list (fun ppf (k, es) ->
         Format.fprintf ppf "%a -> {%a}" Row.pp k
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
              Row.pp)
           (Array.to_list es)))
    (Array.to_list t.groups)
