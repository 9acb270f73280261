(** Rewrite-rule configuration: the global enabled-rule set, its parse
    (CLI [--rewrite] / [NRA_REWRITE] env), and the epoch counter that
    plan caches fold into their keys.  Rules are OFF by default, so
    unrewritten execution stays byte-for-byte the seed behavior. *)

type rule =
  | Fuse_nests  (** adjacent-nest fusion: skip the re-sort (§4.2.2) *)
  | Push_down  (** nest push-down past the outer join (§4.2.4) *)
  | Pipeline  (** pipelined linking selection (§4.2.1) *)
  | Semijoin  (** positive linking predicate → plain semijoin (§4.2.5) *)

val all : rule list
val rule_to_string : rule -> string

val parse : string -> (rule list, string) result
(** ["all"], ["none"], or a comma-separated rule list. *)

val rules : unit -> rule list
(** Currently enabled, in canonical order. *)

val set : rule list -> unit
(** Replace the enabled set and bump the epoch. *)

val set_spec : string -> (unit, string) result
(** [parse] then [set]. *)

val current_epoch : unit -> int

val mask : unit -> string
(** Canonical string of the enabled set, ["none"] when empty. *)

val signature : unit -> string
(** ["mask@epoch"] — the plan-cache key component. *)
