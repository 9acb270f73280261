(** Borrowed int buffers.

    The hash join's per-row offset vectors, the {!Keyed} tables built
    for one scope and a scan's selection vector are int arrays of
    O(rows) length.  Arrays
    that long are allocated directly in the major heap, and a dead one
    waits for a whole major cycle to be swept, so allocating them
    afresh per statement raises the heap peak.  Instead they are
    borrowed from a small free list and returned to it when their
    scope ends, and the next statement reuses them.

    The free list is domain-local and holds only int arrays, so it pins
    no catalog.  It keeps at most {!cap} buffers; a buffer released
    while it is full replaces the shortest one if it is longer.  Two
    live scopes never share a buffer — this matters because statements
    interleave mid-probe: the scheduler suspends a statement at a guard
    checkpoint while its buffers are borrowed.  A buffer whose scope
    never ends (a dropped continuation) simply becomes garbage.

    Parallel regions: the owner borrows every buffer before the region
    starts; workers only write disjoint slices of it. *)

val cap : int
(** The most buffers the free list keeps (16). *)

val pow2_at_least : int -> int -> int
(** [pow2_at_least k n] doubles [k] until it is at least [n]. *)

val borrow : int -> int array
(** A buffer of length at least [n]: the shortest free buffer that
    fits, else a fresh one (its length rounded up by at most 1/8).
    Its contents are unspecified.  Pair every [borrow] with one
    {!release}, in a [Fun.protect ~finally], or use {!with_ints}. *)

val release : int array -> unit
(** Return a borrowed buffer.  The caller must not touch it again. *)

val with_ints : int -> (int array -> 'a) -> 'a
(** [with_ints n f] borrows a buffer of length at least [n] for the
    extent of [f], and releases it however [f] ends. *)

val grow : int array -> keep:int -> int -> int array
(** [grow buf ~keep n] is [buf] if it holds [n] ints; otherwise it
    borrows one at least twice as long (and at least [n]), copies the
    first [keep] ints over and releases [buf]. *)

(** {1 Observation (tests)} *)

val live : unit -> int
(** Buffers borrowed and not yet released on this domain. *)

val high_water : unit -> int
(** The most buffers live at once on this domain since the last
    {!reset_high_water}. *)

val reset_high_water : unit -> unit

val free_count : unit -> int
(** Buffers in this domain's free list. *)
