module Guard = Nra_guard.Guard
module Iosim = Nra_storage.Iosim

(* ---------- worker-local ledgers ---------- *)

module Ledger = struct
  type t = {
    mutable ticks : int;
    mutable rows : int;
    mutable seq_pages : int;
    mutable rand_pages : int;
    mutable fetched_rows : int;
    mutable spills : Nra_storage.Bufpool.Spill.t list;
        (* partitions this chunk consumed via Spill.iter_raw, newest
           first; ownership transfers to the owner at the barrier *)
  }

  let create () =
    {
      ticks = 0;
      rows = 0;
      seq_pages = 0;
      rand_pages = 0;
      fetched_rows = 0;
      spills = [];
    }

  let tick l = l.ticks <- l.ticks + 1
  let add_rows l n = l.rows <- l.rows + n

  (* record a spill partition fully consumed by this chunk (with
     [Bufpool.Spill.iter_raw], which neither charges nor draws); the
     owner replays its page reads and frees it at the join barrier *)
  let consumed_spill l sp = l.spills <- sp :: l.spills
end

(* ---------- sizing knobs ---------- *)

let size_now = ref (max 0 (Domain.recommended_domain_count () - 1))
let size () = !size_now
let threshold = ref 256
let parallel_threshold () = !threshold
let morsel_size = ref 1024
let morsel () = !morsel_size

let executors () = if size () = 0 then 1 else size () + 1
let use_parallel n = executors () > 1 && n >= !threshold

(* ---------- the pool ----------

   Workers live across regions: they block on a condition variable
   until the owner publishes a region, drain its chunk cursor, and go
   back to sleep.  Regions are numbered, so "have I already drained
   this one?" compares the worker's last-seen number: a worker keeps no
   reference to a finished region, whose closure holds the region's
   inputs and results (a table version a write has replaced, say).
   Publication of the region (and of the input arrays the
   chunk closure captured) is ordered by the mutex; the owner reads the
   result slots only after the completion count says every chunk
   finished, which it observes under the same mutex. *)

type region = {
  seq : int;
  count : int;
  run : int -> unit;  (* must not raise: errors land in the caller's slots *)
  cursor : int Atomic.t;
  completed : int Atomic.t;
}

let lock = Mutex.create ()
let work_cv = Condition.create ()
let done_cv = Condition.create ()
let current_region : region option ref = ref None
let regions = ref 0 (* regions published so far, owner-side *)
let stopping = ref false
let workers : unit Domain.t list ref = ref []
let exit_hook = ref false

let drain r =
  let rec go () =
    let i = Atomic.fetch_and_add r.cursor 1 in
    if i < r.count then begin
      r.run i;
      let finished = 1 + Atomic.fetch_and_add r.completed 1 in
      if finished = r.count then begin
        Mutex.lock lock;
        Condition.broadcast done_cv;
        Mutex.unlock lock
      end;
      go ()
    end
  in
  go ()

let worker_body () =
  let last = ref 0 in
  let rec loop () =
    Mutex.lock lock;
    let rec await () =
      if !stopping then None
      else
        match !current_region with
        | Some r when r.seq <> !last -> Some r
        | _ ->
            Condition.wait work_cv lock;
            await ()
    in
    let job = await () in
    Mutex.unlock lock;
    match job with
    | None -> ()
    | Some r ->
        last := r.seq;
        drain r;
        loop ()
  in
  loop ()

let shutdown () =
  match !workers with
  | [] -> ()
  | ds ->
      Mutex.lock lock;
      stopping := true;
      Condition.broadcast work_cv;
      Mutex.unlock lock;
      List.iter Domain.join ds;
      workers := [];
      stopping := false

let configure ~size ~threshold:t ~morsel =
  threshold := max 1 t;
  morsel_size := max 1 morsel;
  if max 0 size <> !size_now then begin
    size_now := max 0 size;
    shutdown ()
  end

(* Spawn lazily, first region only; a failed spawn (fd/thread limits)
   degrades the pool rather than the query. *)
let ensure_workers () =
  let target = size () in
  if List.length !workers <> target then begin
    shutdown ();
    if not !exit_hook then begin
      exit_hook := true;
      at_exit shutdown
    end;
    (try
       for _ = 1 to target do
         workers := Domain.spawn worker_body :: !workers
       done
     with _ -> ())
  end;
  List.length !workers

(* ---------- fork-join ---------- *)

let in_region = ref false (* owner-side: a chunk closure re-entering *)

let merge_ledgers ledgers =
  (* spill-file ownership merges first: replay every consumed
     partition's page reads owner-side, in chunk order then
     consumption order — the same deterministic sequence at every pool
     size (this is the only fault-drawing part of the merge) *)
  Array.iter
    (fun (l : Ledger.t) ->
      List.iter Nra_storage.Bufpool.Spill.account_consumed
        (List.rev l.spills);
      l.spills <- [])
    ledgers;
  let ticks = ref 0
  and rows = ref 0
  and seq = ref 0
  and rand = ref 0
  and fetched = ref 0 in
  Array.iter
    (fun (l : Ledger.t) ->
      ticks := !ticks + l.ticks;
      rows := !rows + l.rows;
      seq := !seq + l.seq_pages;
      rand := !rand + l.rand_pages;
      fetched := !fetched + l.fetched_rows)
    ledgers;
  if !seq <> 0 || !rand <> 0 || !fetched <> 0 then
    Iosim.absorb
      { Iosim.seq_pages = !seq; rand_pages = !rand; fetched_rows = !fetched };
  Guard.absorb ~ticks:!ticks ~rows:!rows

let chunk_count ~min_chunk ~n nexec =
  let by_size = (n + min_chunk - 1) / min_chunk in
  max 1 (min by_size (max nexec (4 * nexec)))

let bounds ~n ~chunks i =
  (i * n / chunks, (i + 1) * n / chunks)

let parallel_chunks ?min_chunk ~n f =
  if n <= 0 then [||]
  else begin
    let min_chunk = match min_chunk with Some m -> max 1 m | None -> !morsel_size in
    Guard.recheck ();
    let cancel =
      match Guard.active () with
      | Some b -> b.Guard.cancel_on
      | None -> None
    in
    let cancelled () =
      match cancel with Some t -> Guard.cancelled t | None -> false
    in
    let nworkers =
      if size () = 0 || !in_region then 0 else ensure_workers ()
    in
    let chunks = chunk_count ~min_chunk ~n (nworkers + 1) in
    let ledgers = Array.init chunks (fun _ -> Ledger.create ()) in
    let results = Array.make chunks None in
    let errors = Array.make chunks None in
    let run i =
      if cancelled () then errors.(i) <- Some (Guard.Killed Guard.Cancelled)
      else begin
        let lo, hi = bounds ~n ~chunks i in
        match f ledgers.(i) ~lo ~hi with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some e
      end
    in
    Guard.with_no_yield (fun () ->
        if nworkers = 0 then
          for i = 0 to chunks - 1 do
            run i
          done
        else begin
          incr regions;
          let r =
            {
              seq = !regions;
              count = chunks;
              run;
              cursor = Atomic.make 0;
              completed = Atomic.make 0;
            }
          in
          Mutex.lock lock;
          current_region := Some r;
          Condition.broadcast work_cv;
          Mutex.unlock lock;
          in_region := true;
          Fun.protect
            ~finally:(fun () -> in_region := false)
            (fun () -> drain r);
          Mutex.lock lock;
          while Atomic.get r.completed < r.count do
            Condition.wait done_cv lock
          done;
          current_region := None;
          Mutex.unlock lock
        end;
        (* barrier: charge once, then surface the serial-order first error *)
        merge_ledgers ledgers;
        Array.iter (function Some e -> raise e | None -> ()) errors);
    Guard.tick ();
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* every chunk ran or an error was raised *))
      results
  end
