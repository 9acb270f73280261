(** Frames: the wide relations the executors operate on.

    A frame's schema is a concatenation of table schemas qualified by
    binding uids; resolved predicates translate positionally against it
    by uid lookup.  [block_relation] materializes the paper's
    T{_i} = σ{_ i'}(R{_i}): the block's FROM tables joined with every
    local conjunct pushed down as early as it becomes applicable. *)

open Nra_relational
open Nra_planner

exception Unsupported of string

val to_pred : Schema.t -> Resolved.rcond list -> Expr.pred
(** Conjunction of resolved conditions over a frame schema.
    @raise Unsupported if a column is not present in the frame. *)

val to_scalar : Schema.t -> Resolved.rexpr -> Expr.scalar

val charge_scan_chunked : ?table:string -> int -> unit
(** Charge a sequential scan of that many rows, chunked so budget
    checks and preemption happen every few pages.  With [~table] and
    the buffer pool enabled, the scan instead goes through the pool
    page by page — resident pages free, misses charged — so repeated
    scans of a small table cost what the paper's 32 MB buffer cache
    would make them cost.  [~table] names the catalog table (a
    binding's [source]), never an alias, so every binding of one table
    reads the same pages. *)

val block_relation : ?charge:bool -> Analyze.block -> Relation.t
(** The block's tables inner-joined under its local conjuncts (pushed
    down); correlated conjuncts and children are {e not} applied.
    Unless [~charge:false], one sequential scan per base table is
    charged to {!Nra_storage.Iosim}. *)

val with_block_input :
  Analyze.block -> (Relation.t -> (int array * int) option -> 'a) -> 'a
(** [block_relation b] handed to [f], with the same charges and
    checkpoints, except that a one-table block with local conjuncts is
    handed as its base relation plus [Some (sel, count)]
    ({!Nra_algebra.Basic.selection}): the first [count] entries of
    [sel] are the positions of the rows that pass, ascending, and no
    row is gathered.  [sel] is borrowed from
    {!Nra_relational.Scratch} and valid only inside [f].  Every other
    block is handed [block_relation b] and [None]. *)

val single_binding : Analyze.block -> Analyze.binding option
(** The block's binding when it has exactly one table. *)
