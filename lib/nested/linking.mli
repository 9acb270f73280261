(** Linking selections over the general nested model — Definition 5.

    These operate on a {!Nested_relation.t} whose top level has (at
    least) one subrelation; the predicate's linked attribute lives in
    subrelation [sub].  They are the reference semantics; the evaluators
    use the equivalent {!Grouped} operators. *)

val select : Link_pred.t -> sub:int -> marker:int option ->
  Nested_relation.t -> Nested_relation.t
(** σ{_C}: keeps nested tuples whose linking predicate is [True]. *)

val pseudo_select : Link_pred.t -> sub:int -> marker:int option ->
  pad:int list -> Nested_relation.t -> Nested_relation.t
(** σ̄{_C,A}: keeps every tuple; failing tuples get their [pad] atom
    positions overwritten with NULL (the subrelations are left
    untouched, as in the paper's Temp3 which drops the nested component
    by the subsequent projection). *)

val drop_sub : sub:int -> Nested_relation.t -> Nested_relation.t
(** The projection that discards a subrelation (the paper's implicit
    projection after a linking selection). *)

(** {1 Deep application}

    Definition 4 notes that for a multi-level relation the linking
    attribute [A] and linked attribute [B] "might belong to the
    subschemas with depth d and d+1 respectively; thus, the above
    definition can still be used".  [at_depth] applies any
    nested-relation transformer at the end of a subrelation path: the
    transformer sees, for each tuple along the path, the subrelation at
    that position, and its result replaces it. *)

val at_depth : path:int list ->
  (Nested_relation.t -> Nested_relation.t) -> Nested_relation.t ->
  Nested_relation.t
(** [at_depth ~path f r] rewrites the subrelations reached by following
    the subrelation indices in [path] (so [path = []] is [f r] itself).
    @raise Invalid_argument if an index is out of range. *)

val pseudo_select_at : path:int list -> Link_pred.t -> sub:int ->
  marker:int option -> pad:int list -> Nested_relation.t ->
  Nested_relation.t
