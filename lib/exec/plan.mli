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

val admits_at : Analyze.child -> discard_ok:bool -> impl -> bool
(** [admits] at a site given by its child and discard context. *)

val sub_discard : discard_ok:bool -> impl -> Analyze.child -> bool
(** The discard context of a site's sub-sites, given the site's own
    context and impl. *)

val lift : base:options -> Analyze.t -> t
(** Each site takes the first admissible implementation among those
    [base] enables, in the order shared set, push-down, semijoin,
    bottom-up, top-down. *)

(** {1 Sites and codes}

    A plan's sites are its analysis' children in pre-order ({!nodes}
    order), and a node's discard context follows from its ancestors'
    impls, so a plan is determined by its sites' impls.  Each impl is a
    code below 11; the impls decoded from codes are shared values. *)

val code : impl -> int
val of_code : int -> impl

val with_nest : impl -> pipelined:bool -> assume_sorted:bool -> impl
(** A join+nest impl with its nest's flags replaced, as a shared value.
    @raise Invalid_argument on another impl. *)

val count_sites : int -> Analyze.child list -> int
(** [count_sites n cs]: [n] plus the sites of [cs] and their
    subtrees. *)

val signature : t -> Bytes.t
(** One code per site, in {!nodes} order. *)

val of_codes : Analyze.t -> Bytes.t -> t
(** The plan whose sites take a signature's impls, with every discard
    context derived from its ancestors. *)

val nodes : t -> node list
val find : t -> int -> node option
val replace : t -> id:int -> impl:impl -> t
(** The plan with block [id]'s site set to [impl], every discard
    context derived from its ancestors. *)

val impl_to_string : impl -> string
