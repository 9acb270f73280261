(** Write-ahead log with undo, one per catalog ({!Catalog.wal}).

    Physical logging over the in-place catalog: before a statement
    mutates a table, it appends a record of the rows it changes
    (log-before-write), and finishes with a Commit record.  A record
    holds a delta, not the table: an INSERT's prior length and appended
    rows, a DELETE's removed positions and rows, an UPDATE's positions
    with their before and after rows.  Every append is charged the
    sequential pages of its delta through {!Iosim.charge_wal_append}
    {e before} the record becomes durable — so a fault or crash at the
    append leaves a clean torn-log prefix, the case recovery is built
    to tolerate.

    Two failure paths, matching the two ways execution can die:

    - {!abort} — inline rollback when an {!Fault.Io_fault} escapes its
      retry budget: the statement's ops undone in reverse order, then
      an Abort record.  Preserves DML's pre-statement atomicity.
    - {!recover} — crash recovery after {!Fault.Crash} (the
      kill-at-fault-point harness, which bypasses all cleanup): REDO
      each table's newest op when its statement committed, then UNDO
      unfinished statements in reverse.  An op is applied only when its
      table stands where the op expects it, so recovering again is a
      no-op and row order is restored exactly.

    When a statement ends (Commit or Abort) and no other statement of
    its catalog is running, the log is emptied: the catalog holds every
    ended statement's effect.  Rollback paths never charge and never
    draw faults: undo must not itself fail.  Single-threaded, like the
    catalog. *)

type stmt

val begin_stmt : Catalog.t -> stmt
(** Open a statement on the catalog's log (appends a Begin record, one
    charged page). *)

val log_insert :
  stmt -> table:string -> at:int -> Nra_relational.Row.t array -> unit
(** Record rows appended to a table of [at] rows; charged at their
    paged size.  Must be appended {e before} the catalog mutation, as
    must every op below. *)

val log_delete :
  stmt ->
  table:string ->
  len:int ->
  positions:int array ->
  Nra_relational.Row.t array ->
  unit
(** Record the rows at [positions] (ascending) removed from a table of
    [len] rows; charged at their paged size. *)

val log_update :
  stmt ->
  table:string ->
  positions:int array ->
  before:Nra_relational.Row.t array ->
  after:Nra_relational.Row.t array ->
  unit
(** Record the rows at [positions] (ascending) rewritten from [before]
    to [after]; charged at the paged size of both. *)

val log_create : stmt -> Table.t -> unit
(** Record a table creation (undo drops it; redo re-registers it). *)

val log_drop : stmt -> Table.t -> unit
(** Record a table drop, capturing the table for undo. *)

val commit : stmt -> unit

val abort : ?applied:bool -> stmt -> unit
(** Inline undo: undo the statement's ops in reverse order, then append
    an Abort record.  Uncharged and fault-free.  [~applied:false] (the
    statement died before its mutation ran — e.g. a fault on the log
    append itself, or the mutation's own validation) skips the undo
    but still ends the statement. *)

type recovery = { redone : int; undone : int }

val recover : Catalog.t -> recovery
(** Replay the catalog's log against it: redo each table's newest op
    when its statement committed, then undo every statement that
    neither committed nor aborted, in reverse order, and empty the log.
    Uncharged, fault-free, idempotent. *)

val needs_recovery : Catalog.t -> bool
(** True when the catalog's log holds a statement that began but
    neither committed nor aborted — the shape only a crash leaves
    behind. *)

val recover_if_needed : Catalog.t -> recovery option
(** {!recover} iff {!needs_recovery}; [None] means the log was clean
    and the catalog untouched.  Run at CLI and server startup so an
    embedding that observed a crash heals before serving. *)

val records : unit -> int
(** Total records appended to any catalog's log since the last
    {!reset} (the WAL counter reported by [explain --costs]). *)

val reset : unit -> unit
(** Zero the {!records} counter.  The logs themselves live with their
    catalogs. *)
