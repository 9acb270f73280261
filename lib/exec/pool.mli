(** Morsel-driven intra-query parallelism: a lazily-spawned, reusable
    Domain pool with one fork-join primitive, {!parallel_chunks}.

    The paper's pipeline is "a sequence of hash joins producing one wide
    flat intermediate, then nest + linking selection" — operator shapes
    that parallelize embarrassingly by partitioning on the join/group
    key.  The flat-intermediate representation keeps morsel partitioning
    trivial: every kernel splits its input row array into contiguous
    chunks ("morsels"), workers produce one output buffer per chunk, and
    the owner concatenates the buffers {e in chunk order}, so results
    are bit-identical to the serial path.

    {2 Guard contract (the subtle part)}

    The guard ({!Nra_guard.Guard}) and the I/O simulation
    ({!Nra_storage.Iosim}) are global and single-threaded by design.
    Worker domains therefore never touch them: each chunk closure
    receives a private {!Ledger.t} and accrues its checkpoints and the
    spill partitions it consumed there; the owner merges all ledgers
    {e once}, at the join barrier, replaying the partitions' page reads
    and crediting the checkpoints to the guard.  Consequences, all documented and tested:

    - a parallel region is one coarse checkpoint — budgets are enforced
      at region entry and at the barrier, not per row;
    - the region is a [with_no_yield] critical section from the
      cooperative scheduler's point of view (no worker may perform the
      scheduler's effects);
    - the active budget's cancellation token {e is} polled per morsel
      (reading one [bool ref] across domains is benign), so a cancel
      mid-region stops the remaining morsels and surfaces
      [Killed Cancelled] at the barrier;
    - total charged simulated I/O equals the serial run's total, because
      every charge site stays owner-side: the kernels charge before or
      after a region, and a consumed spill partition's page reads are
      replayed, with their fault draws, at the barrier in chunk order.

    Chunk closures must not call [Guard.tick]/[Iosim.charge_*]
    themselves — that is what the ledger is for.

    {2 Determinism}

    Chunk {e assignment} to workers is dynamic (work stealing via an
    atomic cursor), but chunk {e results} land in a per-chunk slot and
    are combined in chunk order, so output — and, with fault injection
    on, the fault-draw sequence, which is exclusively owner-side — is
    identical for every pool size, including 0. *)

module Ledger : sig
  type t = {
    mutable ticks : int;  (** would-be [Guard.tick] calls *)
    mutable spills : Nra_storage.Bufpool.Spill.t list;
        (** spill partitions this chunk fully consumed (via
            [Bufpool.Spill.iter_raw]); ownership transfers to the owner
            at the join barrier, which replays their page reads in
            chunk order and frees them *)
  }

  val tick : t -> unit

  val consumed_spill : t -> Nra_storage.Bufpool.Spill.t -> unit
  (** Record a partition consumed by this chunk.  This is how the
      grace/hybrid join runs {e under} the pool:
      workers read spill data without touching the (single-threaded)
      buffer pool, and the owner settles residency, charges, and fault
      draws deterministically at the barrier. *)
end

val size : unit -> int
(** Worker-domain count in effect: the last {!configure}, else one less
    than [Domain.recommended_domain_count ()] (the owner participates
    in every region), clamped at 0.  [0] means strictly serial — no
    domain is ever spawned and every kernel takes its pre-existing
    serial path. *)

val parallel_threshold : unit -> int
(** Minimum input rows before a kernel leaves its serial path (default
    256); below it, fork-join overhead dominates.  Tests lower it to
    force tiny inputs through the parallel code. *)

val morsel : unit -> int
(** Target rows per chunk (default 1024); the actual chunk count is
    also capped at four per executor (the owner and each worker) so
    per-chunk buffers stay coarse. *)

val configure : size:int -> threshold:int -> morsel:int -> unit
(** Set all three (size clamped at 0, the others at 1) — the pool's
    part of [Nra.configure].  A new size takes effect lazily: live
    workers are retired and the new complement is spawned on the next
    parallel region. *)

val use_parallel : int -> bool
(** [size () > 0 && n >= parallel_threshold ()] — the guard every
    kernel places in front of its parallel path. *)

val parallel_chunks :
  ?min_chunk:int -> n:int -> (Ledger.t -> lo:int -> hi:int -> 'a) -> 'a array
(** [parallel_chunks ~n f] splits [0..n-1] into contiguous chunks,
    evaluates [f ledger ~lo ~hi] for each (owner and workers drain a
    shared cursor), and returns the per-chunk results {e in chunk
    order}.  At the barrier the owner merges all ledgers into the guard
    and the I/O simulation, then re-raises the exception of the
    lowest-indexed failed chunk, if any — the same error the serial
    left-to-right loop would have raised first.  [min_chunk] defaults
    to {!morsel}; pass [1] to make every index its own unit of work
    (e.g. one chunk per hash partition).  Runs inline — same semantics,
    same ledger merge — when the pool is serial or the caller is
    already inside a region. *)
