(** Compiling a linking site for the set-oriented executors.

    [compile] turns an analyzed child into the {!Nra_nested.Link_pred.t}
    that decides it, plus its {e keep} list: the expressions over a wide
    frame that make up one element — the linked attribute first (when
    the link reads one), then, for outer-join paths, the carried
    primary-key marker.  The predicate reads elements in that keep
    frame.  The verdict itself is [Link_pred]'s fold; an executor steps
    it either with keep-frame element rows or with linked values read in
    place from the rows it already holds.  Used by the nested relational
    executor, the magic decorrelation baseline and nested iteration. *)

open Nra_relational
open Nra_planner
open Nra_nested

type t = {
  pred : Link_pred.t;  (** over the keep frame *)
  keep : (Expr.scalar * Schema.column) list;
  linked : int option;  (** the linked attribute's position in [keep] *)
  marker : int option;
      (** the marker's position in [keep]: an element whose marker is
          NULL is outer-join padding and not in the set *)
}

val compile :
  key_schema:Schema.t ->
  wide_schema:Schema.t ->
  with_marker:bool ->
  Analyze.child ->
  t
(** [key_schema] is the frame the outer tuple lives in (the linking
    attribute is evaluated against it); [wide_schema] is the frame the
    keep expressions are computed from.  [with_marker] adds the marker
    to [keep]. *)

val linked_of : t -> Row.t -> Value.t
(** A wide-frame row's linked value ([Null] when the link reads none).
    Partially apply it once per site. *)

(** {1 Keyed sets}

    An inner relation's linking sets grouped by correlation key, built
    once and probed per outer tuple (the push-down site and the magic
    baseline).  A predicate whose stepping never reads the outer tuple
    (the EXISTS forms, aggregates) keeps one fold per key, stepped as
    the inner rows arrive; a quantified or scalar one keeps each key's
    linked values, in order, and folds over them per outer tuple.  An
    inner row with a NULL key component joins no set, and an outer
    tuple with one meets the empty set. *)

type keyed

val group : t -> keys:Expr.scalar array -> tick:bool -> Row.t array -> keyed
(** [keys] are evaluated on the inner rows ([wide_schema]'s frame);
    with [tick], each inner row is a guard checkpoint. *)

val decide : keyed -> key:Row.t -> outer:Row.t -> Three_valued.t
