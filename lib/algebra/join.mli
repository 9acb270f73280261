(** Joins.

    The paper's approach needs exactly two physical joins — hash
    equi-join and left outer hash join — while the classical-unnesting
    baseline additionally uses semijoin and antijoin, and the
    nested-iteration baseline uses index nested loops.  All variants
    share one entry point that extracts equi-conjuncts as hash keys,
    chains the build side by them in one {!Nra_relational.Keyed} table,
    and evaluates the residual conjuncts in 3VL on each candidate pair;
    with no equi-conjunct the join degrades to a nested loop.

    NULL join keys never match (SQL equi-join semantics).  For
    [Left_outer], an unmatched left row is padded with NULLs on the
    right — including the right relation's key columns, which is what
    lets the nested relational operators recognize empty groups. *)

open Nra_relational

type kind =
  | Inner
  | Left_outer
  | Semi   (** left rows with at least one match; left schema only *)
  | Anti   (** left rows with no match (condition never [True]);
               left schema only *)

val join : kind -> on:Expr.pred -> Relation.t -> Relation.t -> Relation.t
(** [on] is over the concatenated frame (left columns then right
    columns), even for [Semi]/[Anti]. *)

type matches = { off : int array; len : int array; pos : int array }
(** Group-offset vectors: left row [i]'s matches are the right rows at
    positions [pos.(off.(i))] ... [pos.(off.(i) + len.(i) - 1)], in
    right (build) order.  The arrays are borrowed buffers and may be
    longer than the rows they describe; every left row of a Cartesian
    site points at one shared range. *)

val with_matches :
  on:Expr.pred -> ?left_sel:int array * int -> ?sel:int array * int ->
  Relation.t -> Relation.t -> (matches -> 'a) -> 'a
(** [with_matches ~on left right f] runs the probe primitive every
    variant shares and hands [f] its vectors: for each left row (by
    position), the right rows that satisfy [on].  [join kind] is
    exactly this, emitted per left row in left order.  Picks the same
    physical variant as [join] (nested loop, serial or parallel hash,
    grace/hybrid under a frame budget), with the same charges, spill
    traffic, and one checkpoint per probed left row.

    With [~sel:(sel, count)] the build side is the [count] rows of
    [right] at positions [sel.(0)] ... [sel.(count - 1)] (ascending),
    as if [right] had been gathered through them; [pos] then holds
    positions into [right] itself.  [~left_sel:(lsel, n)] does the same
    for the probe side: left row [i] is row [lsel.(i)] of [left], for
    [i < n], and [off]/[len] are indexed by [i].

    The vectors are borrowed from {!Nra_relational.Scratch} for the
    extent of [f] and returned however [f] ends: [f] must not keep
    them. *)

type source = {
  count : int;
  arity : int;
  reader : unit -> int -> Row.t;
      (** one probing domain's view of the rows: [reader ()] is called
          once per domain (the serial probe, each parallel chunk, each
          grace pass), and the function it returns gives row [i], for
          [i < count].  It may hand back a buffer of its own, which its
          next call overwrites: the probe reads a row only until it
          reads the next. *)
}
(** A probe side whose rows need not be stored: the NRA executor's wide
    frame kept as position pairs loads each pair's columns into one
    row buffer per domain. *)

val with_matches_of :
  on:Expr.pred -> ?sel:int array * int -> source -> Relation.t ->
  (matches -> 'a) -> 'a
(** [with_matches] over a {!source}: the same variants, charges,
    checkpoints and vectors, with left row [i] read through the
    source. *)

val nested_loop : kind -> on:Expr.pred -> Relation.t -> Relation.t ->
  Relation.t
(** Reference implementation, a plain nested loop independent of
    {!Nra_relational.Keyed}: tests hold [join] and [with_matches] to
    it. *)
