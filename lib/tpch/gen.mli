(** Deterministic TPC-H-shaped data generator.

    Produces all eight TPC-H tables with the schema, key structure, join
    fan-out and value distributions the benchmark queries of the paper's
    Section 5 depend on, at a configurable scale (1.0 ≈ the official
    SF 1 row counts; benchmarks use a fraction).

    Substitutions vs. the official dbgen, documented in DESIGN.md: text
    columns carry short synthetic strings (their content is never
    queried), and two knobs the paper's experiments turn are explicit:
    [declare_not_null] toggles the NOT NULL constraints on the money
    columns the ALL/NOT IN rewrites hinge on, and [null_rate] injects
    NULLs into those same columns to exercise three-valued semantics. *)

open Nra_storage

type config = {
  scale : float;
  seed : int64;
  null_rate : float;
      (** probability of NULL in [l_extendedprice] and [ps_supplycost]
          (only meaningful with [declare_not_null = false]) *)
  declare_not_null : bool;
      (** declare NOT NULL on [l_extendedprice] / [ps_supplycost] —
          the constraint whose presence lets a classical optimizer turn
          ALL / NOT IN into an antijoin *)
}

val default : config
(** scale 0.01, seed 42, no NULLs, constraints {e not} declared (the
    paper's "general case"). *)

val generate : config -> Catalog.t
(** Build and register all eight tables.  A repeated value is boxed
    once and shared by every row that holds it; a foreign key is the
    cell of the key it references. *)

val add_benchmark_indexes : Catalog.t -> unit
(** The secondary indexes Section 5.1 creates manually: sorted indexes
    on lineitem(l_partkey, l_suppkey), lineitem(l_partkey),
    lineitem(l_suppkey), lineitem(l_orderkey) and
    partsupp(ps_partkey). *)

(** Date bounds of [o_orderdate] (inclusive), for computing selection
    windows of a target selectivity. *)

val orderdate_lo : int
val orderdate_hi : int
