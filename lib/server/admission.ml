type config = {
  max_concurrent : int;
  queue_len : int;
  queue_timeout_ms : float option;
}

let default_config =
  { max_concurrent = 4; queue_len = 16; queue_timeout_ms = Some 1000.0 }

type stats = {
  admitted : int;
  queued : int;
  rejected_full : int;
  timed_out : int;
  cancelled : int;
  peak_running : int;
  peak_queue : int;
}

let zero_stats =
  {
    admitted = 0;
    queued = 0;
    rejected_full = 0;
    timed_out = 0;
    cancelled = 0;
    peak_running = 0;
    peak_queue = 0;
  }

type 'a entry = { e_payload : 'a; e_enqueued_at : float }

type 'a t = {
  cfg : config;
  mutable running : int;
  mutable queue : 'a entry list;  (* FIFO: head is oldest *)
  mutable st : stats;
}

let create cfg =
  let cfg =
    {
      cfg with
      max_concurrent = Int.max 1 cfg.max_concurrent;
      queue_len = Int.max 0 cfg.queue_len;
    }
  in
  { cfg; running = 0; queue = []; st = zero_stats }

let config t = t.cfg
let stats t = t.st

type 'a waiter = { payload : 'a; enqueued_at : float; at : float }

let deadline t (e : 'a entry) =
  match t.cfg.queue_timeout_ms with
  | None -> infinity
  | Some ms -> e.e_enqueued_at +. ms

let note_admitted t =
  t.st <-
    {
      t.st with
      admitted = t.st.admitted + 1;
      peak_running = Int.max t.st.peak_running t.running;
    }

(* Queue entries share one timeout, so deadlines are in FIFO order: the
   expired entries are always a prefix. *)
let expire t ~now =
  let rec split = function
    | e :: rest when deadline t e <= now ->
        let gone, keep = split rest in
        ({ payload = e.e_payload; enqueued_at = e.e_enqueued_at;
           at = deadline t e }
         :: gone,
         keep)
    | keep -> ([], keep)
  in
  let gone, keep = split t.queue in
  t.queue <- keep;
  t.st <- { t.st with timed_out = t.st.timed_out + List.length gone };
  gone

let submit t ~now payload =
  if t.running < t.cfg.max_concurrent then begin
    t.running <- t.running + 1;
    note_admitted t;
    `Admitted
  end
  else if List.length t.queue < t.cfg.queue_len then begin
    t.queue <- t.queue @ [ { e_payload = payload; e_enqueued_at = now } ];
    t.st <-
      {
        t.st with
        queued = t.st.queued + 1;
        peak_queue = Int.max t.st.peak_queue (List.length t.queue);
      };
    `Queued
  end
  else begin
    t.st <- { t.st with rejected_full = t.st.rejected_full + 1 };
    `Rejected_full
  end

let release t ~now =
  if t.running <= 0 then invalid_arg "Admission.release: nothing running";
  t.running <- t.running - 1;
  (* waiters whose deadline passed while the slot was busy never get it *)
  let expired = expire t ~now in
  match t.queue with
  | [] -> (expired, None)
  | e :: rest ->
      t.queue <- rest;
      t.running <- t.running + 1;
      note_admitted t;
      ( expired,
        Some { payload = e.e_payload; enqueued_at = e.e_enqueued_at; at = now }
      )

let cancel t pred =
  let gone, keep = List.partition (fun e -> pred e.e_payload) t.queue in
  t.queue <- keep;
  t.st <- { t.st with cancelled = t.st.cancelled + List.length gone };
  List.map (fun e -> e.e_payload) gone

let pp_stats ppf s =
  Format.fprintf ppf
    "admitted %d, queued %d, rejected %d (queue full), timed out %d, \
     cancelled %d; peaks: %d running / %d queued"
    s.admitted s.queued s.rejected_full s.timed_out s.cancelled
    s.peak_running s.peak_queue
