(** Memory governor: a per-statement ledger over staged intermediates.

    Evaluators stage flat intermediates (the pre-nest wide staging,
    post-processing projection/aggregation buffers, sub-block
    materializations) that the buffer pool's frame budget historically
    never saw.  {!with_staged} brackets each one:

    - its footprint (rows x schema width x 8-byte value slots) is
      charged to a live-bytes ledger with a high-water mark, surfaced
      in [explain --costs] and [query --time];
    - when the buffer pool is enabled and the staging exceeds the
      frame budget, its row positions are routed through a
      {!Bufpool.Spill} partition and read straight back, with the page
      traffic charged and fault-drawn like any other spill I/O;
    - stagings kept in memory record {!field:max_resident_pages}, so
      tests can assert no unspilled intermediate ever exceeded the
      budget.

    A residency simulation like the rest of the storage layer: rows
    stay on the OCaml heap, the charges are what is real.  Global and
    single-threaded; call owner-side only. *)

type stats = {
  stagings : int;  (** intermediates charged since reset *)
  staged_rows : int;
  high_water_bytes : int;  (** peak simultaneous live staged bytes *)
  spilled_stagings : int;  (** stagings routed through [Bufpool.Spill] *)
  spilled_rows : int;
  max_resident_pages : int;
      (** largest staging kept unspilled, in pages — never exceeds the
          frame budget while the pool is enabled *)
}

val stats : unit -> stats

val with_charged : rows:int -> width:int -> (unit -> 'a) -> 'a
(** Charge an intermediate's footprint for the dynamic extent of [f]
    (released on any exit).  Used for intermediates that are observed
    but not re-routable (e.g. the wide join product while it is being
    nested). *)

val with_staged : rows:int -> width:int -> (unit -> 'a) -> 'a
(** [with_staged ~rows ~width f] — charge a staging of [rows] rows of
    [width] columns and run [f], the staging counted resident when it
    fits the budget, or after its spill round-trip when it does not
    (row positions written to a spill partition and read back, page
    traffic charged).  The staging itself is whatever [f] reads: a
    relation it builds, or rows it reads in place. *)
