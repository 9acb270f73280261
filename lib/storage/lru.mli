(** A fixed-capacity LRU set of page identifiers — the buffer-cache
    model of {!Iosim} and the recency list of {!Bufpool}.  O(1)
    hit/insert/evict, and no allocation outside of growth.

    Entries live in {e slots}: small ints that stay fixed while the
    entry is present, so a user can keep per-entry data in its own
    arrays indexed by slot.  A removed entry's slot is reused by a
    later insertion. *)

type t

val create : capacity:int -> t
(** [capacity <= 0] means "always miss" (caching disabled). *)

val touch : t -> int -> bool
(** [touch t page] returns whether [page] was resident (a cache hit),
    and in all cases makes it the most recently used entry, evicting the
    least recently used one if the capacity is exceeded. *)

val mem : t -> int -> bool
(** Residency test without promoting. *)

val size : t -> int

val remove : t -> int -> unit
(** Drop an entry without evicting anything else; no-op if absent. *)

val clear : t -> unit

(** {1 Slots} *)

val find : t -> int -> int
(** The slot holding [page], or [-1]. *)

val slots : t -> int
(** One more than the largest slot {!add} has returned so far: arrays
    of this length hold per-entry data for every live slot. *)

val key : t -> int -> int
(** The page in a live slot. *)

val add : t -> int -> int
(** Insert an absent page as the most recent entry and return its
    slot.  Never evicts, whatever the capacity. *)

val promote : t -> int -> unit
(** Make a live slot the most recent entry. *)

val remove_slot : t -> int -> unit
(** Drop a live slot's entry; the slot becomes free. *)

val victim : t -> (int -> bool) -> int
(** The least-recently-used slot satisfying the predicate, or [-1] if
    every slot fails it — the buffer pool's pin-aware eviction scan
    (O(1) when the true LRU entry is evictable).  Pass a top-level
    function: a closure built per call would allocate. *)
