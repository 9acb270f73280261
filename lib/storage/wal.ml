(* Write-ahead log with undo, one per catalog.

   The engine mutates the catalog in place (Catalog.update_rows /
   register / drop_table), so durability here means: before any
   mutation is applied, a record of what it changes is appended to the
   catalog's log (log-before-write), and the statement ends with a
   Commit record.  A row write logs only its delta (Wal_log.op): the
   rows an INSERT appends, the positions and rows a DELETE removes, the
   positions with their before and after rows an UPDATE rewrites.  If
   execution dies mid-statement:

   - an ordinary escaped fault (Fault.Io_fault past its retry budget)
     is handled inline: the facade calls [abort], which undoes the
     statement's ops in reverse order and appends an Abort record;

   - a power-loss crash (Fault.Crash from the kill-at-fault-point
     harness) skips all cleanup by design.  The catalog is left in
     whatever torn state the crash produced, and [recover] repairs it:
     REDO the newest op on each table when its statement committed,
     then UNDO every unfinished statement's ops in reverse order.

   Each op is applied only when its table is in the state the op
   expects (an INSERT's redo wants the table at its prior length, its
   undo at prior length plus the appended rows, and so on), so both
   passes are idempotent and restore row order exactly.  Redo needs
   only a table's newest op: statements writing one table serialize,
   so each older op on it was applied before the newer one was logged.

   When a statement ends and no other statement of the catalog is
   running, every record left belongs to an ended statement whose
   effect the catalog holds, so the log is emptied: it grows with the
   statements in flight, not with the statements run.

   Like everything in the simulation the log "disk" is process memory;
   what is real is the charging: every append pays the sequential pages
   of what it records through Iosim.charge_wal_append before the record
   becomes durable, and that charge site draws from the fault injector.
   A fault or crash at the append therefore hits *before* the record
   exists, which is exactly the torn-log case recovery must tolerate.
   The rollback paths ([abort], [recover]) never charge and never draw
   — undo must not itself fail. *)

open Nra_relational
open Wal_log

type stmt = { cat : Catalog.t; id : int }

(* process-wide, like the Iosim counters: records appended to any log *)
let appended = ref 0
let records () = !appended
let reset () = appended := 0

let push log r =
  log.records <- r :: log.records;
  incr appended

let charge_pages pages = Iosim.charge_wal_append ~pages

(* Charge first, append second: if the charge faults (or the crash
   harness fires there), the record was never written — the torn-log
   prefix discipline recovery relies on. *)
let append s ~rows r =
  Fault.retrying charge_pages (max 1 (Iosim.pages rows));
  push (Catalog.wal s.cat) r

let begin_stmt cat =
  let log = Catalog.wal cat in
  let s = { cat; id = log.next } in
  log.next <- log.next + 1;
  append s ~rows:0 (Begin s.id);
  log.running <- log.running + 1;
  s

let log_insert s ~table ~at rows =
  append s ~rows:(Array.length rows) (Op (s.id, Insert { table; at; rows }))

let log_delete s ~table ~len ~positions rows =
  append s ~rows:(Array.length rows)
    (Op (s.id, Delete { table; len; positions; rows }))

let log_update s ~table ~positions ~before ~after =
  append s
    ~rows:(Array.length before + Array.length after)
    (Op (s.id, Update { table; positions; before; after }))

let log_create s t = append s ~rows:(Table.cardinality t) (Op (s.id, Create t))
let log_drop s t = append s ~rows:0 (Op (s.id, Drop t))

let finish log r =
  push log r;
  log.running <- log.running - 1;
  if log.running = 0 then log.records <- []

let commit s =
  Fault.retrying charge_pages 1;
  finish (Catalog.wal s.cat) (Commit s.id)

(* ---------- applying a delta ---------- *)

let rows_of cat table = Relation.rows (Table.relation (Catalog.table cat table))

(* the rows came out of the table, so they were checked when they
   entered it: neither types nor keys are revalidated, and no index is
   built until a probe reads it *)
let install cat table rows = Catalog.update_rows ~fresh:[||] cat table rows

(* [rows] without the entries at [positions] *)
let remove rows positions =
  let out = Array.make (Array.length rows - Array.length positions) [||] in
  let p = ref 0 in
  Array.iteri
    (fun i r ->
      if !p < Array.length positions && positions.(!p) = i then incr p
      else out.(i - !p) <- r)
    rows;
  out

(* [rows] with [restored.(k)] put back at [positions.(k)] *)
let restore rows positions restored =
  let out = Array.make (Array.length rows + Array.length positions) [||] in
  let p = ref 0 in
  for i = 0 to Array.length out - 1 do
    if !p < Array.length positions && positions.(!p) = i then begin
      out.(i) <- restored.(!p);
      incr p
    end
    else out.(i) <- rows.(i - !p)
  done;
  out

(* write [images] at [positions] unless they are already there *)
let put cat table positions images =
  let cur = rows_of cat table in
  let k = Array.length positions in
  if k > 0 && positions.(k - 1) < Array.length cur then begin
    let stale = ref false in
    Array.iteri (fun i p -> if cur.(p) != images.(i) then stale := true) positions;
    if !stale then begin
      let rows = Array.copy cur in
      Array.iteri (fun i p -> rows.(p) <- images.(i)) positions;
      install cat table rows
    end
  end

let table_of = function
  | Insert { table; _ } | Delete { table; _ } | Update { table; _ } -> table
  | Create t | Drop t -> Table.name t

(* Shared by inline abort and the recovery undo pass.  The op is its
   table's newest, so the table stands either before it (not applied:
   a crash between the record and the mutation) or after it. *)
let undo_op cat op =
  match op with
  | Create t ->
      if Catalog.mem cat (Table.name t) then
        Catalog.drop_table cat (Table.name t)
  | Drop t -> if not (Catalog.mem cat (Table.name t)) then Catalog.register cat t
  | _ when not (Catalog.mem cat (table_of op)) -> ()
  | Insert { table; at; rows } ->
      let cur = rows_of cat table in
      if Array.length rows > 0 && Array.length cur = at + Array.length rows then
        install cat table (Array.sub cur 0 at)
  | Delete { table; len; positions; rows } ->
      let cur = rows_of cat table in
      if Array.length rows > 0 && Array.length cur = len - Array.length rows then
        install cat table (restore cur positions rows)
  | Update { table; positions; before; _ } -> put cat table positions before

let redo_op cat op =
  match op with
  | Create t -> if not (Catalog.mem cat (Table.name t)) then Catalog.register cat t
  | Drop t ->
      if Catalog.mem cat (Table.name t) then
        Catalog.drop_table cat (Table.name t)
  | _ when not (Catalog.mem cat (table_of op)) -> ()
  | Insert { table; at; rows } ->
      let cur = rows_of cat table in
      if Array.length rows > 0 && Array.length cur = at then
        install cat table (Array.append cur rows)
  | Delete { table; len; positions; rows } ->
      let cur = rows_of cat table in
      if Array.length rows > 0 && Array.length cur = len then
        install cat table (remove cur positions)
  | Update { table; positions; after; _ } -> put cat table positions after

let abort ?(applied = true) s =
  let log = Catalog.wal s.cat in
  if applied then
    List.iter
      (function Op (id, op) when id = s.id -> undo_op s.cat op | _ -> ())
      log.records;
  (* uncharged: rollback must not fault.  The Abort record matters to
     recovery while other statements run — without it, replay would
     undo this statement a second time. *)
  finish log (Abort s.id)

type recovery = { redone : int; undone : int }

let recover cat =
  let log = Catalog.wal cat in
  let committed = Hashtbl.create 16 and ended = Hashtbl.create 16 in
  List.iter
    (function
      | Commit id ->
          Hashtbl.replace committed id ();
          Hashtbl.replace ended id ()
      | Abort id -> Hashtbl.replace ended id ()
      | _ -> ())
    log.records;
  (* log.records is newest-first: the first op met on a table is its
     newest *)
  let redone = ref 0 and seen = Hashtbl.create 16 in
  List.iter
    (function
      | Op (id, op) when not (Hashtbl.mem seen (table_of op)) ->
          Hashtbl.replace seen (table_of op) ();
          if Hashtbl.mem committed id then begin
            redo_op cat op;
            incr redone
          end
      | _ -> ())
    log.records;
  let undone = ref 0 and unfinished = Hashtbl.create 4 in
  List.iter
    (function
      | Op (id, op) when not (Hashtbl.mem ended id) ->
          Hashtbl.replace unfinished id ();
          undo_op cat op;
          incr undone
      | Begin id when not (Hashtbl.mem ended id) ->
          Hashtbl.replace unfinished id ()
      | _ -> ())
    log.records;
  (* every statement has ended now (the unfinished ones with an
     uncharged Abort each, as [abort] appends), so the log is empty *)
  appended := !appended + Hashtbl.length unfinished;
  log.records <- [];
  log.running <- 0;
  { redone = !redone; undone = !undone }

(* a statement that began and never ended: the log shape only a crash
   leaves behind *)
let needs_recovery cat = (Catalog.wal cat).running > 0

let recover_if_needed cat =
  if needs_recovery cat then Some (recover cat) else None
