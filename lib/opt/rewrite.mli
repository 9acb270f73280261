(** Cost-gated rewrite engine over the NRA plan ({!Nra_exec.Plan}).

    Each enabled rule proposes [impl] edits node by node; an edit is
    applied only when the whole-plan Iosim estimate strictly improves.
    The estimate is {!Nra_stats.Cost.price} of {!Nra_stats.Cost.walk}:
    the scan and fetch charges the executor makes, the one number Auto
    also ranks strategies by.  A proposal is priced by the signature
    ({!Plan.signature}) it would give, and no plan is built while
    searching.  The engine iterates to
    a bounded fixpoint and returns the rewritten plan, which
    {!Nra_exec.Nra.run_where} runs as given, and the fired / skipped
    trace for [explain --costs]. *)

module Plan := Nra_exec.Plan

val propose : Config.rule -> Plan.node -> Plan.impl option
(** The rule's edit at this node (before any costing): [Some impl] only
    when the rule applies and [impl] is {!Nra_exec.Plan.admissible}
    there. *)

type verdict = Fired | Skipped of string

type trace_entry = {
  rule : Config.rule;
  block_id : int;
  impl_before : Plan.impl;
  impl_after : Plan.impl;  (** the rule's proposal at the block *)
  cost_before : Nra_stats.Cost.breakdown;
  cost_after : Nra_stats.Cost.breakdown;
  verdict : verdict;
}

type result = {
  dirs : Plan.t;
      (** the rewritten plan, for {!Nra_exec.Nra.run_where}'s
          [?directives] *)
  changed : bool;
  trace : trace_entry list;
  before : Nra_stats.Cost.breakdown;  (** the starting plan's walk *)
  after : Nra_stats.Cost.breakdown;  (** the rewritten plan's walk *)
}

type ctx
(** One statement's pricing context: its cardinality context and every
    plan priced in it so far.  Each distinct plan is walked once per
    context, however many searches or estimates ask for it.  Plans are
    told apart by their signatures, so every plan priced in a context
    must have its discard contexts normalized, as {!Plan.lift},
    {!Plan.of_codes} and {!Plan.replace} leave them. *)

val context : Nra_stats.Cardinality.env -> ctx

val walk : ctx -> Plan.t -> Nra_stats.Cost.breakdown
(** The scan and fetch charges of a plan of the context's statement
    ({!Nra_stats.Cost.breakdown} of its walk): for a lifted plan, its
    NRA strategy's estimate. *)

val rewrite : rules:Config.rule list -> ctx -> Plan.t -> result
(** Rewrite [start], a plan of the context's statement, under [rules],
    pricing it and every candidate in that one context. *)

val site : trace_entry -> string
(** ["block N: before → after"], formatted when called. *)

val trace_lines : result -> string list
