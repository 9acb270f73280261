(* A paged buffer pool with a fixed frame budget.

   The engine's data always lives in OCaml heap memory — what this pool
   simulates is *residency*: which pages an engine with [frames] frames
   of buffer memory would have resident, and therefore which accesses
   hit (free) and which miss (a page-in charged through Iosim, possibly
   forcing a dirty writeback first).  Everything the cost model, the
   guards, the scheduler quanta, and the fault injector see goes through
   those Iosim charge sites, so bounded memory is visible to every
   layer above without any layer holding real 8 KB buffers.

   Disabled by default ([frames () = None]): the engine behaves exactly
   as before this pool existed.  Enable with [set_frames (Some n)],
   [--buffer-pages N] on the CLI, or the NRA_BUFFER_PAGES environment
   variable ("N" frames, or "32mb"-style budgets converted at the
   configured Iosim page size) — the latter is how CI runs the whole
   suite out-of-core.

   Global and single-threaded, like Iosim: worker domains never touch
   the pool.  The spill paths do run under the Domain pool, but workers
   walk partition data with [Spill.iter_raw] (pure heap reads, no pool
   traffic) and the owner replays the residency and charges at the join
   barrier with [Spill.account_consumed], in partition order — so the
   charge totals and the fault-draw sequence stay independent of the
   domain count (see docs/STORAGE.md). *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  spilled_partitions : int;
  spilled_pages : int;
}

(* the live counters: bumped in place on every access, so the hot
   paths allocate nothing; [stats] takes a snapshot *)
let hits = ref 0
let misses = ref 0
let evictions = ref 0
let writebacks = ref 0
let spilled_partitions = ref 0
let spilled_pages = ref 0

type meta = {
  key : string * int;
  mutable dirty : bool;
  mutable pins : int;
}

let frame_budget : int option ref = ref None

(* page identity: (owner, page number) interned to a dense int for the
   Lru recency list *)
let ids : (string * int, int) Hashtbl.t = Hashtbl.create 256
let next_id = ref 0
let metas : (int, meta) Hashtbl.t = Hashtbl.create 256
let lru = ref (Lru.create ~capacity:max_int)

let enabled () = !frame_budget <> None
let frames () = !frame_budget

let stats () =
  {
    hits = !hits;
    misses = !misses;
    evictions = !evictions;
    writebacks = !writebacks;
    spilled_partitions = !spilled_partitions;
    spilled_pages = !spilled_pages;
  }

let reset () =
  Hashtbl.reset ids;
  Hashtbl.reset metas;
  next_id := 0;
  lru := Lru.create ~capacity:max_int;
  List.iter
    (fun r -> r := 0)
    [ hits; misses; evictions; writebacks; spilled_partitions; spilled_pages ]

let set_frames n =
  reset ();
  frame_budget := Option.map (max 1) n

let id_of key =
  match Hashtbl.find_opt ids key with
  | Some i -> i
  | None ->
      let i = !next_id in
      incr next_id;
      Hashtbl.add ids key i;
      i

let resident key =
  match Hashtbl.find_opt ids key with
  | None -> false
  | Some i -> Hashtbl.mem metas i

(* Evict down to the frame budget: least-recently-used unpinned frames
   go first; a dirty victim is written back (one charged page) before
   the frame is reused.  If every frame is pinned the pool over-commits
   rather than deadlocking — pins here are short (one spill page while
   its rows are consumed), so this is the pragmatic choice a
   simulation can make where a real pool would block. *)
let rec enforce () =
  match !frame_budget with
  | None -> ()
  | Some f ->
      if Hashtbl.length metas > f then begin
        match
          Lru.find_victim !lru (fun i -> (Hashtbl.find metas i).pins = 0)
        with
        | None -> ()
        | Some i ->
            let m = Hashtbl.find metas i in
            if m.dirty then begin
              Fault.with_retries (fun () -> Iosim.charge_page_out 1);
              incr writebacks
            end;
            Lru.remove !lru i;
            Hashtbl.remove metas i;
            incr evictions;
            enforce ()
      end

(* make [key] resident and most-recent; [dirty] marks the frame,
   [charge] pays for the page-in on a miss *)
let touch ~dirty ~charge key =
  if enabled () then begin
    let i = id_of key in
    match Hashtbl.find_opt metas i with
    | Some m ->
        incr hits;
        ignore (Lru.touch !lru i);
        if dirty then m.dirty <- true
    | None ->
        incr misses;
        if charge then Fault.with_retries (fun () -> Iosim.charge_page_in 1);
        ignore (Lru.touch !lru i);
        Hashtbl.replace metas i { key; dirty; pins = 0 };
        enforce ()
  end

let read key = touch ~dirty:false ~charge:true key

(* a blind write allocates the frame dirty without reading the old
   contents back in — the cost is deferred to the writeback *)
let write key = touch ~dirty:true ~charge:false key

let pin key =
  if enabled () then begin
    if not (resident key) then read key;
    let m = Hashtbl.find metas (id_of key) in
    m.pins <- m.pins + 1
  end

let unpin key =
  if enabled () then
    match Hashtbl.find_opt ids key with
    | None -> ()
    | Some i -> (
        match Hashtbl.find_opt metas i with
        | Some m -> m.pins <- max 0 (m.pins - 1)
        | None -> ())

(* free a page whose data is dead: no writeback, the frame just
   becomes available *)
let drop key =
  match Hashtbl.find_opt ids key with
  | None -> ()
  | Some i ->
      Lru.remove !lru i;
      Hashtbl.remove metas i;
      Hashtbl.remove ids key

(* ---------- spill partitions ----------

   A spill partition is an append-only run of pages holding the rows
   that exceeded the frame budget — the unit the grace hash join and
   the governor's over-budget stagings write out and
   later consume partition-at-a-time.  The rows themselves stay on the
   OCaml heap, in the array the operator already holds (this is a
   simulation): a partition records only their positions in that
   array.  What the pool tracks is that
   the partition's pages were *written* (dirty frames, written back as
   the budget forces them out) and later *read* (hits if still
   resident — which is exactly how a hybrid join's lucky partitions
   become free — misses charged otherwise).  A page is [rows_per_page]
   consecutive positions, so page counts, charges and fault draws are
   those of a partition of whole rows. *)

module Spill = struct
  type t = {
    tag : string;
    per_page : int;
    mutable pos : int array;
    base : int;  (* the partition's positions are [pos.(base) ...] *)
    slice : bool;  (* [pos] is the caller's buffer: never grown *)
    mutable len : int;
    mutable n_pages : int;
  }

  let seq = ref 0

  let create ?slice label =
    incr seq;
    let per_page = max 1 (Iosim.config ()).Iosim.rows_per_page in
    let pos, base = Option.value slice ~default:([||], 0) in
    {
      tag = Printf.sprintf "spill:%s#%d" label !seq;
      per_page;
      pos;
      base;
      slice = Option.is_some slice;
      len = 0;
      n_pages = 0;
    }

  let length t = t.len

  (* the page holding positions [n_pages * per_page, len) is complete:
     write it (a dirty frame, charged when the budget forces it out) *)
  let flush_page t =
    if t.len > t.n_pages * t.per_page then begin
      if t.n_pages = 0 then incr spilled_partitions;
      write (t.tag, t.n_pages);
      t.n_pages <- t.n_pages + 1;
      incr spilled_pages
    end

  let add t i =
    if (not t.slice) && t.len = Array.length t.pos then begin
      let grown = Array.make (max t.per_page (2 * t.len)) 0 in
      Array.blit t.pos 0 grown 0 t.len;
      t.pos <- grown
    end;
    t.pos.(t.base + t.len) <- i;
    t.len <- t.len + 1;
    if t.len mod t.per_page = 0 then flush_page t

  let finish t = flush_page t

  let iter_page t p f =
    for j = p * t.per_page to min t.len ((p + 1) * t.per_page) - 1 do
      f (Array.unsafe_get t.pos (t.base + j))
    done

  let iter t f =
    for p = 0 to t.n_pages - 1 do
      let key = (t.tag, p) in
      pin key;
      Fun.protect ~finally:(fun () -> unpin key) (fun () -> iter_page t p f)
    done

  (* pure data walk for worker domains: no pool residency, no charges,
     no fault draws.  The owner must replay the partition's page reads
     with [account_consumed] at the join barrier. *)
  let iter_raw t f =
    for p = 0 to t.n_pages - 1 do
      iter_page t p f
    done

  let free t =
    for p = 0 to t.n_pages - 1 do
      drop (t.tag, p)
    done;
    t.n_pages <- 0;
    t.len <- 0;
    t.pos <- [||]

  (* owner-side replay of a partition a worker consumed with
     [iter_raw]: pin/unpin every page in order (hits if resident,
     page-in charges + fault draws otherwise — exactly what a serial
     [iter] would have paid), then free the dead pages.  Called at the
     join barrier in partition order, so charges and faults land in the
     same sequence at every pool size. *)
  let account_consumed t =
    for p = 0 to t.n_pages - 1 do
      let key = (t.tag, p) in
      pin key;
      unpin key
    done;
    free t
end

(* NRA_BUFFER_PAGES: "N" frames, "0" disabled, or a "<X>mb" memory
   budget converted at the configured Iosim page size *)
let () =
  Iosim.on_reset reset;
  match Sys.getenv_opt "NRA_BUFFER_PAGES" with
  | None -> ()
  | Some spec -> (
      let spec = String.trim (String.lowercase_ascii spec) in
      match int_of_string_opt spec with
      | Some n when n > 0 -> frame_budget := Some n
      | Some _ -> ()
      | None ->
          if String.length spec > 2
             && String.sub spec (String.length spec - 2) 2 = "mb"
          then
            match
              float_of_string_opt
                (String.sub spec 0 (String.length spec - 2))
            with
            | Some mb when mb > 0.0 ->
                frame_budget := Some (Iosim.frames_for_mb mb)
            | _ -> ())
