(** The admission controller: a concurrent-query cap with a bounded
    FIFO wait queue and queue timeouts.

    The engine is single-threaded (like [Iosim] and the guard), so
    concurrency is modeled in {e virtual time}: every operation takes
    [~now], a monotone millisecond clock the server derives from the
    simulated I/O durations of the statements it runs.  This keeps
    admission decisions — who waited, who timed out, who was turned
    away — fully deterministic for a given workload, which is what the
    tests and the bench driver assert against.

    Policy, in order, for a statement arriving at [now]:
    - a free slot ([running < max_concurrent]): admitted;
    - queue shorter than [queue_len]: queued FIFO;
    - otherwise: rejected ([`Rejected_full] — the caller surfaces it as
      [Nra.Exec_error.Rejected]).

    A queued statement whose slot does not free within
    [queue_timeout_ms] times out ([Exec_error.Queue_timeout]).  Closing
    a session {!cancel}s its queued entries. *)

type config = {
  max_concurrent : int;  (** execution slots; clamped to [>= 1] *)
  queue_len : int;  (** wait-queue bound; clamped to [>= 0] *)
  queue_timeout_ms : float option;
      (** give up waiting after this long; [None] waits forever *)
}

val default_config : config
(** 4 slots, queue of 16, 1000 ms queue timeout. *)

type 'a t
(** ['a] is the waiter payload (the server's pending statement). *)

val create : config -> 'a t
val config : 'a t -> config

val submit : 'a t -> now:float -> 'a -> [ `Admitted | `Queued | `Rejected_full ]
(** [`Admitted] takes a slot (released later via {!release}). *)

type 'a waiter = {
  payload : 'a;
  enqueued_at : float;
  at : float;  (** when the outcome happened: promotion or deadline *)
}

val expire : 'a t -> now:float -> 'a waiter list
(** Pop every queued entry whose deadline passed, oldest first; [at] is
    the deadline it missed, so [at -. enqueued_at] is the configured
    timeout, not the (later) moment the server noticed. *)

val release : 'a t -> now:float -> 'a waiter list * 'a waiter option
(** Free one slot at [now].  Returns the waiters that timed out while
    the slot was busy (their deadlines precede [now]) and the head
    waiter promoted into the freed slot, if any — promotion keeps the
    slot taken, so the caller must {!release} again when the promoted
    statement finishes. *)

val cancel : 'a t -> ('a -> bool) -> 'a list
(** Remove (and return, FIFO order) the queued entries matching the
    predicate — session close flushing its queued work. *)

type stats = {
  admitted : int;  (** granted a slot, directly or by promotion *)
  queued : int;  (** entered the wait queue *)
  rejected_full : int;
  timed_out : int;
  cancelled : int;
  peak_running : int;
  peak_queue : int;
}

val stats : 'a t -> stats
val pp_stats : Format.formatter -> stats -> unit
