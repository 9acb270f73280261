(** A paged buffer pool with a fixed frame budget.

    Simulates bounded buffer memory over the in-heap engine: a page is
    an int owner ({!owner} interns a table's name; each spill partition
    takes a fresh one) plus a page number, residency is tracked in an
    LRU list ({!Lru}) whose slots index the frames' dirty bits and pin
    counts, and only the {e charging} is real — a miss
    pays one sequential page through {!Iosim.charge_page_in}, evicting
    a dirty frame pays {!Iosim.charge_page_out}, and hits are free.
    Both charge sites draw from the fault injector, so out-of-core
    execution composes with the fault and crash harnesses.

    Disabled by default ([frames () = None]); every access is then a
    no-op and the engine charges exactly as it did before this module
    existed.  Enable with {!set_frames}, which installs the engine
    configuration's frame budget ([Nra.Engine_config]).

    Global and single-threaded, like {!Iosim}: worker domains never
    touch the pool.  Spilled partitions are still consumed {e under}
    the Domain pool: workers walk data with {!Spill.iter_raw} (no pool
    traffic) and the owner replays residency and charges in partition
    order at the join barrier via {!Spill.account_consumed} (see
    docs/STORAGE.md). *)

type stats = {
  hits : int;  (** accesses satisfied by a resident frame (free) *)
  misses : int;  (** accesses that had to page in or allocate a frame *)
  evictions : int;  (** frames reclaimed to respect the budget *)
  writebacks : int;  (** dirty victims flushed (each one charged page) *)
  spilled_partitions : int;
      (** spill partitions that materialized at least one page *)
  spilled_pages : int;  (** total pages written across spill partitions *)
}

val enabled : unit -> bool
val frames : unit -> int option

val set_frames : int option -> unit
(** Set the frame budget ([None] disables the pool).  Clears all
    residency and statistics; budgets below 1 are clamped to 1. *)

val stats : unit -> stats

val reset : unit -> unit
(** Clear residency and statistics but keep the configured budget.
    Also runs automatically on every {!Iosim.reset} so cold
    measurements stay cold. *)

val owner : string -> int
(** The owner id of a named page run (a table): the same name always
    maps to the same id.  Intern once per scan, not per page. *)

val read : int -> int -> unit
(** [read owner page] accesses a page for reading: free on a hit, one
    charged page-in on a miss (possibly preceded by a dirty writeback
    to free a frame). *)

val write : int -> int -> unit
(** Access a page for writing: the frame is marked dirty and the cost
    is deferred to its eventual writeback (write-behind).  A miss does
    not read the old contents back in (blind write). *)

val pin : int -> int -> unit
(** Make the page resident (charging as {!read} if absent) and exempt
    it from eviction until {!unpin}.  Pins nest.  Pinning a resident
    page does not promote it.  When every other frame is pinned too,
    the pool over-commits rather than evicting the page just read. *)

val unpin : int -> int -> unit

val drop : int -> int -> unit
(** Discard a page whose data is dead: the frame is freed with no
    writeback, even if dirty. *)

val resident : int -> int -> bool
(** Residency test without promoting or charging (for tests). *)

(** Append-only spilled partitions — the unit the grace hash join and
    the governor's over-budget stagings write when
    their input exceeds the frame budget.  The rows stay where the
    caller already holds them: a partition is a paged list of {e row
    positions} into the caller's array, and [iter] hands the positions
    back in the order they were added.  Positions are buffered into
    pages of [rows_per_page] entries (the {!Iosim} page size when the
    partition is created), so a partition has as many pages as one of
    whole rows would; each full page is a {!write} (dirty frame,
    written back as the budget forces it out) and each page revisited
    by [iter] is a {!read} (free if still resident — how a hybrid
    join's lucky partitions become free — charged otherwise), pinned
    while its positions are consumed. *)
module Spill : sig
  type t

  val create : int array -> base:int -> t
  (** [create buf ~base] — a fresh empty partition, its pages under a
      fresh owner id, keeping its positions in [buf] from [base] on.
      The caller reserves room there for every position it adds, and
      keeps ownership of [buf]. *)

  val add : t -> int -> unit
  (** Append a row position; completing a page writes it. *)

  val length : t -> int
  (** Number of positions added. *)

  val finish : t -> unit
  (** Flush the final partial page.  Call once, before [iter]. *)

  val iter : t -> (int -> unit) -> unit
  (** Every position, in the order added, page by page: each page is
      pinned (charged as {!read} if not resident) while its positions
      are consumed. *)

  val iter_raw : t -> (int -> unit) -> unit
  (** Walk the partition's positions without touching the pool: no
      residency updates, no charges, no fault draws.  This is the only
      spill entry point worker domains may call; the owning domain must
      account for the consumed pages afterwards with
      {!account_consumed}. *)

  val free : t -> unit
  (** Drop every page of the partition from the pool (no
      writebacks) and empty it. *)

  val account_consumed : t -> unit
  (** Owner-side replay for a partition consumed via {!iter_raw}:
      pin/unpin every page in order (charging page-ins and drawing
      faults exactly as a serial [iter] would), then {!free} it.
      Called at the join barrier in partition order so the charge and
      fault sequences are identical at every domain count. *)
end
