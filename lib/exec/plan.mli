(** The NRA plan: the paper's query tree with one node per linking site.

    Each node carries the implementation its site runs — one of the five
    of Section 4 — and whether its linking selection may discard failing
    tuples (σ) or must NULL-pad them (σ̄).  {!lift} is the only place a
    site's implementation is chosen from a strategy's options.
    {!Nra.run_where} runs a plan as given, {!Nra.plan_description}
    renders it, the cost model prices it, and the rewriter ([lib/opt])
    edits its [impl] fields.  {!admissible} holds each implementation's
    structural preconditions: the rewriter proposes only admissible
    edits, and the executor rejects a plan with an inadmissible node. *)

open Nra_planner

(** The four switches of Section 4.2 that {!lift} reads (§4.2.1–4.2.2,
    4.2.3, 4.2.4, 4.2.5 in field order). *)
type options = {
  pipelined : bool;
  bottom_up_linear : bool;
  push_down_nest : bool;
  positive_simplify : bool;
}

type nest = {
  pipelined : bool;
      (** evaluate the linking selection during the group scan instead of
          materializing υ (§4.2.1–4.2.2) *)
  assume_sorted : bool;
      (** fuse with the upstream sort: when the wide input is already
          key-sorted at runtime, skip the re-sort and stream groups off
          the run scan.  Checked against the executor's own sorted-prefix
          tracking, so it never changes results. *)
}

type impl =
  | Shared_set  (** uncorrelated: evaluate once, share the value set *)
  | Push_down  (** §4.2.4 group-by-correlation-key probe *)
  | Semijoin  (** §4.2.5 positive linking → plain semijoin *)
  | Bottom_up of nest  (** §4.2.3 reduce standalone, then join+nest *)
  | Top_down of nest  (** Algorithm 1 general case *)

type node = {
  child : Analyze.child;
  impl : impl;
  sub : node list;  (** the sites of [child]'s block, in order *)
  discard_ok : bool;
}

type t = { analyzed : Analyze.t; roots : node list }

val admissible : node -> bool
(** The structural preconditions of the node's [impl] at its site:
    [Shared_set] needs a self-contained uncorrelated block, [Push_down] a
    self-contained block with equality correlation, [Semijoin] a
    correlated leaf with a positive link where discarding is allowed,
    [Bottom_up] a self-contained block; [Top_down] always applies.
    They read the facts {!Analyze} recorded in the block. *)

val admits : node -> impl -> bool
(** [admits n impl]: would [impl] be admissible at [n]'s site, in [n]'s
    discard context? *)

val lift : base:options -> Analyze.t -> t
(** Each site takes the first admissible implementation among those
    [base] enables, in the order shared set, push-down, semijoin,
    bottom-up, top-down. *)

val nodes : t -> node list
val find : t -> int -> node option
val replace : t -> id:int -> impl:impl -> t

val renormalize : t -> t
(** Recompute every node's [discard_ok] from its (possibly rewritten)
    ancestors. *)

val impl_to_string : impl -> string
