open Nra_relational

(* A {!Keyed} table that owns its arrays, over the indexed relation's
   rows (shared, never copied), under the equi-probe NULL rule.  A
   probe key is read at [ident], its own positions 0..k-1. *)

type t = { table : Keyed.t; positions : int array; ident : int array }

let build rel positions =
  let rows = Relation.rows rel in
  let n = Array.length rows in
  let buckets = Keyed.buckets ~pos:positions n in
  let table =
    Keyed.build ~nulls:`Skip ~pos:positions ~head:(Array.make buckets 0)
      ~buckets ~next:(Array.make n 0) rows
  in
  { table; positions; ident = Array.init (Array.length positions) Fun.id }

let cardinality t = Keyed.linked t.table

(* a key's chain runs in ascending ids; the walk conses on the way back *)
let rec collect t key_row j =
  if j < 0 then []
  else j :: collect t key_row (Keyed.next_equal t.table t.ident key_row j)

let probe t key_row =
  if Array.length key_row <> Array.length t.positions then []
  else collect t key_row (Keyed.first t.table t.ident key_row)

(* the first id an earlier id is keyed like *)
let first_duplicate t =
  let rec from id =
    if id >= Keyed.length t.table then None
    else
      let f = Keyed.first_entry t.table id in
      if f >= 0 && f < id then Some id else from (id + 1)
  in
  from 0
