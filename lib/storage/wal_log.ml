(* The records of one catalog's write-ahead log.  The catalog owns the
   log (Catalog.wal) so that recovery reads only the writes made to it;
   Wal appends, truncates and replays it. *)

open Nra_relational

(* A row delta names its table; positions are ascending and index the
   table's rows as they stood before the write. *)
type op =
  | Insert of { table : string; at : int; rows : Row.t array }
      (** [rows] appended to a table of [at] rows *)
  | Delete of { table : string; len : int; positions : int array;
                rows : Row.t array }
      (** the rows at [positions] removed from a table of [len] rows *)
  | Update of { table : string; positions : int array;
                before : Row.t array; after : Row.t array }
      (** the rows at [positions] rewritten from [before] to [after] *)
  | Create of Table.t
  | Drop of Table.t

type record =
  | Begin of int
  | Op of int * op
  | Commit of int
  | Abort of int

type t = {
  mutable records : record list;  (* newest first *)
  mutable next : int;  (* the next statement id *)
  mutable running : int;  (* statements begun and not yet ended *)
}

let create () = { records = []; next = 0; running = 0 }
