(** Per-table statistics: one {!Col_stats.t} per column plus the row
    count.  The catalog keeps a table's snapshot in its entry
    ({!Catalog.analyze}, {!Catalog.stats}) and clears it whenever the
    table's rows change. *)

type t = {
  table : string;
  rows : int;
  cols : (string * Col_stats.t) list;  (** by unqualified column name *)
}

val collect : ?buckets:int -> Table.t -> t

val col : t -> string -> Col_stats.t option

val pp : Format.formatter -> t -> unit
