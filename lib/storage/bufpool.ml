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
   as before this pool existed.  Enable with [set_frames (Some n)]; the
   engine configuration's frame budget is installed through it.

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

let frame_budget : int option ref = ref None

(* Page identity: an int owner (a table interned by name with [owner],
   or a spill partition's fresh number) plus a page number, packed into
   one int key for the recency list.  A page number takes the low 31
   bits. *)
let owners : (string, int) Hashtbl.t = Hashtbl.create 16
let last_owner = ref 0

let fresh_owner () =
  incr last_owner;
  !last_owner

let owner name =
  match Hashtbl.find_opt owners name with
  | Some o -> o
  | None ->
      let o = fresh_owner () in
      Hashtbl.add owners name o;
      o

let page_key owner page = (owner lsl 31) lor page

(* The resident frames are exactly the entries of [lru], and a frame's
   state sits in arrays indexed by its Lru slot, so a hit, a miss and
   an eviction allocate nothing. *)
let lru = Lru.create ~capacity:max_int
let dirty = ref [||]
let pins = ref [||]

(* Frames whose writeback charge is running.  Each one is pinned, so no
   other task picks it as a victim and writes it back again, and it
   already counts as gone, so the budget needs no other frame for it. *)
let leaving = ref 0

let enabled () = match !frame_budget with Some _ -> true | None -> false
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
  Lru.clear lru;
  leaving := 0;
  hits := 0;
  misses := 0;
  evictions := 0;
  writebacks := 0;
  spilled_partitions := 0;
  spilled_pages := 0

let set_frames n =
  reset ();
  frame_budget := Option.map (max 1) n

let resident owner page = Lru.find lru (page_key owner page) >= 0

(* the charges retried on a fault: top-level, so passing them to
   [Fault.with_retries] builds no closure *)
let page_in () = Iosim.charge_page_in 1
let page_out () = Iosim.charge_page_out 1
let unpinned s = !pins.(s) = 0

(* the end of a writeback charge, however it ends ([reset] may have
   cleared the pool meanwhile) *)
let written_back key =
  if !leaving > 0 then decr leaving;
  let s = Lru.find lru key in
  if s >= 0 then !pins.(s) <- max 0 (!pins.(s) - 1)

(* Evict down to the frame budget: least-recently-used unpinned frames
   go first; a dirty victim is written back (one charged page) before
   the frame is reused.  If every frame is pinned the pool over-commits
   rather than deadlocking — pins here are short (one spill page while
   its rows are consumed), so this is the pragmatic choice a
   simulation can make where a real pool would block.

   A charge may suspend the task: a fault's backoff is a scheduler
   sleep, and other tasks use the pool meanwhile.  So a victim is
   pinned and counted in [leaving] for the length of its writeback, and
   removed by its key after it. *)
let write_back key s =
  !pins.(s) <- !pins.(s) + 1;
  incr leaving;
  (match Fault.with_retries page_out with
  | () -> ()
  | exception e ->
      written_back key;
      raise e);
  written_back key;
  incr writebacks;
  Lru.remove lru key

let rec enforce () =
  match !frame_budget with
  | None -> ()
  | Some f ->
      if Lru.size lru - !leaving > f then begin
        let s = Lru.victim lru unpinned in
        if s >= 0 then begin
          if !dirty.(s) then write_back (Lru.key lru s) s
          else Lru.remove_slot lru s;
          incr evictions;
          enforce ()
        end
      end

(* the frame of a page just paged in, most recent; another task may
   have brought the page in while this one slept in the charge, and
   then its frame is taken over *)
let install key ~is_dirty ~pinned =
  let s = Lru.find lru key in
  let s =
    if s >= 0 then begin
      Lru.promote lru s;
      s
    end
    else Lru.add lru key
  in
  let n = Lru.slots lru in
  if n > Array.length !dirty then begin
    let d = Array.make n false and p = Array.make n 0 in
    Array.blit !dirty 0 d 0 (Array.length !dirty);
    Array.blit !pins 0 p 0 (Array.length !pins);
    dirty := d;
    pins := p
  end;
  !dirty.(s) <- is_dirty;
  !pins.(s) <- pinned

(* make the page resident and most-recent; [is_dirty] marks the frame,
   [charge] pays for the page-in on a miss *)
let touch ~is_dirty ~charge owner page =
  if enabled () then begin
    let key = page_key owner page in
    let s = Lru.find lru key in
    if s >= 0 then begin
      incr hits;
      Lru.promote lru s;
      if is_dirty then !dirty.(s) <- true
    end
    else begin
      incr misses;
      if charge then Fault.with_retries page_in;
      install key ~is_dirty ~pinned:0;
      enforce ()
    end
  end

let read owner page = touch ~is_dirty:false ~charge:true owner page

(* a blind write allocates the frame dirty without reading the old
   contents back in — the cost is deferred to the writeback *)
let write owner page = touch ~is_dirty:true ~charge:false owner page

(* pinning a resident page does not promote it; a missing page is read
   in already pinned, so when every other frame is pinned too the pool
   over-commits instead of evicting the page it just read *)
let pin owner page =
  if enabled () then begin
    let key = page_key owner page in
    let s = Lru.find lru key in
    if s >= 0 then !pins.(s) <- !pins.(s) + 1
    else begin
      incr misses;
      Fault.with_retries page_in;
      install key ~is_dirty:false ~pinned:1;
      enforce ()
    end
  end

let unpin owner page =
  let s = Lru.find lru (page_key owner page) in
  if s >= 0 then !pins.(s) <- max 0 (!pins.(s) - 1)

(* free a page whose data is dead: no writeback, the frame just
   becomes available *)
let drop owner page = Lru.remove lru (page_key owner page)

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
    owner : int;
    per_page : int;
    pos : int array;  (* the caller's buffer *)
    base : int;  (* the partition's positions are [pos.(base) ...] *)
    mutable len : int;
    mutable n_pages : int;
  }

  let create pos ~base =
    {
      owner = fresh_owner ();
      per_page = max 1 (Iosim.config ()).Iosim.rows_per_page;
      pos;
      base;
      len = 0;
      n_pages = 0;
    }

  let length t = t.len

  (* the page holding positions [n_pages * per_page, len) is complete:
     write it (a dirty frame, charged when the budget forces it out) *)
  let flush_page t =
    if t.len > t.n_pages * t.per_page then begin
      if t.n_pages = 0 then incr spilled_partitions;
      write t.owner t.n_pages;
      t.n_pages <- t.n_pages + 1;
      incr spilled_pages
    end

  let add t i =
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
      pin t.owner p;
      match iter_page t p f with
      | () -> unpin t.owner p
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          unpin t.owner p;
          Printexc.raise_with_backtrace e bt
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
      drop t.owner p
    done;
    t.n_pages <- 0;
    t.len <- 0

  (* owner-side replay of a partition a worker consumed with
     [iter_raw]: pin/unpin every page in order (hits if resident,
     page-in charges + fault draws otherwise — exactly what a serial
     [iter] would have paid), then free the dead pages.  Called at the
     join barrier in partition order, so charges and faults land in the
     same sequence at every pool size. *)
  let account_consumed t =
    for p = 0 to t.n_pages - 1 do
      pin t.owner p;
      unpin t.owner p
    done;
    free t
end

let () = Iosim.on_reset reset
