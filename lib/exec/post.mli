(** Output post-processing shared by all executors.

    Every executor reduces a query to the multiset of outer-block frame
    rows that satisfy WHERE (including all subquery predicates); this
    module then applies, in SQL order: GROUP BY + aggregates, HAVING,
    SELECT projection, DISTINCT, ORDER BY, LIMIT. *)

open Nra_relational
open Nra_planner

exception Unsupported of string

val apply : ?sel:int array * int -> Analyze.output -> Relation.t -> Relation.t
(** [apply output rel] post-processes the frame rows [rel].  With
    [~sel:(sel, count)] the frame is the [count] rows of [rel] at
    positions [sel.(0)] ... [sel.(count - 1)], in that order: they are
    projected (or staged for grouping) straight from [rel], so a result
    row is the only row built for it.
    @raise Unsupported on e.g. a non-grouped column used alongside
    aggregates, or ORDER BY expressions incompatible with DISTINCT. *)
