(** The algebraic rewrite rules and their one parser, shared by the
    CLI's [--rewrite] and [Nra.Engine_config.of_env].  Rules are OFF by
    default, so unrewritten execution stays byte-for-byte the seed
    behavior. *)

type rule =
  | Fuse_nests  (** adjacent-nest fusion: skip the re-sort (§4.2.2) *)
  | Push_down  (** nest push-down past the outer join (§4.2.4) *)
  | Pipeline  (** pipelined linking selection (§4.2.1) *)
  | Semijoin  (** positive linking predicate → plain semijoin (§4.2.5) *)

val all : rule list
val rule_to_string : rule -> string

val parse : string -> (rule list, string) result
(** ["all"], ["none"], or a comma-separated rule list, in canonical
    order. *)

val mask : rule list -> string
(** Canonical string of a rule set, ["none"] when empty. *)
