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

    An inner relation's linking sets by correlation key, probed per
    outer tuple (the push-down site, the shared set and the magic
    baseline).  The inner rows are chained by key in a {!Keyed} table
    under the equi-probe NULL rule ([`Skip]), its arrays borrowed from
    {!Scratch} for the extent of a scope, so building and probing
    allocate nothing per inner row.  A probe steps its key's rows in
    row order, stopping as soon as the verdict is decided.  A predicate
    whose stepping never reads the outer tuple (the EXISTS forms,
    aggregates) keeps the fold of the key it last probed, so a run of
    probes of one key — every probe of a shared set — folds it once.
    An inner row with a NULL key component joins no set, and an outer
    tuple with one meets the empty set. *)

val inner_keys :
  Schema.t -> (Resolved.rcol * Resolved.rexpr) list -> int array
(** An equi-correlation's ([Analyze.block]'s [equi_correlation]) inner key
    columns, as positions in the inner frame. *)

val outer_keys :
  Schema.t -> (Resolved.rcol * Resolved.rexpr) list -> Expr.scalar array
(** Its outer keys, as expressions over the outer frame. *)

type group

val with_group :
  ?sel:int array * int ->
  ?buckets:int ->
  t ->
  keys:int array ->
  probe:Expr.scalar array ->
  tick:bool ->
  Row.t array ->
  (group -> 'a) ->
  'a
(** [with_group lk ~keys ~probe ~tick rows f] chains [rows] (or the
    [count] of them [?sel = (sel, count)] names, [rows.(sel.(i))]) by
    their [keys] columns and runs [f] on the table; [probe] computes
    the matching key from an outer tuple.  [keys = [||]] is one shared
    set.  With [tick], each inner row is a guard checkpoint.
    [?buckets] (rounded up to a power of two) overrides the bucket
    count, which otherwise is the least power of two at least the row
    count, and 16; tests force collisions with it. *)

val decide : group -> Row.t -> Three_valued.t
(** The verdict for one outer tuple. *)

(** {2 The magic set} *)

type magic

val with_magic_set :
  probe:Expr.scalar array -> Row.t array -> (magic -> 'a) -> 'a
(** The outer rows chained by their [probe] key, for the extent of the
    scope; one guard checkpoint per outer row. *)

val restrict : magic -> keys:int array -> Relation.t -> Relation.t
(** The rows of a relation, in order, whose [keys] columns (no NULL
    among them) equal some outer row's probe key; one guard checkpoint
    per row. *)
