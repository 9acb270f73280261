(* The rewrite engine: rules propose [impl] edits on the NRA plan, and
   an edit is applied only when the whole-plan Iosim estimate strictly
   improves.

   The estimate is the cost model's scan/fetch walk over the plan
   ([Nra_stats.Cost.plan_breakdown]) plus the nest passes the rewrites
   can change: a materialized nest pays a materialize-and-rescan pass
   over its staging and a sort pass, a pipelined nest pays only the
   sort, and that sort is skipped when the staging input is already
   key-sorted.  Sortedness is tracked as a conservative boolean — "the
   relation is fully key-sorted for the current frame" — modelled on the
   executor's sorted-prefix tracking; where the static analysis cannot
   be sure (e.g. below a top-down recursion) it assumes unsorted, which
   can only under-fire the fusion rule, never mis-fire it. *)

open Nra_planner
module A = Analyze
module Cost = Nra_stats.Cost
module Plan = Nra_exec.Plan

type costline = { seq : float; rand : float; fetch : float; ms : float }

(* Block ids of the join+nest sites whose staging input is statically
   key-sorted.  A frame starts unsorted; a join+nest site emits it
   sorted unless σ̄ padding breaks the order, a semijoin keeps the order
   it was given, and a shared-set or push-down site keeps it only where
   it discards.  A top-down site's grandchildren widen its frame, so
   its staging is sorted only when it has none. *)
let presorted (p : Plan.t) =
  let rec sites acc ~sorted = function
    | [] -> acc
    | (n : Plan.node) :: rest ->
        let acc = sites acc ~sorted:false n.Plan.sub in
        let id = n.Plan.child.A.block.A.id in
        let acc =
          match n.Plan.impl with
          | Plan.Bottom_up _ when sorted -> id :: acc
          | Plan.Top_down _ when sorted && n.Plan.sub = [] -> id :: acc
          | _ -> acc
        in
        let sorted =
          match n.Plan.impl with
          | Plan.Bottom_up _ | Plan.Top_down _ -> n.Plan.discard_ok
          | Plan.Semijoin -> sorted
          | Plan.Shared_set | Plan.Push_down -> sorted && n.Plan.discard_ok
        in
        sites acc ~sorted rest
  in
  sites [] ~sorted:false p.Plan.roots

(* the sequential pages of one nest+linking-selection over [rows] staged
   tuples *)
let nest_pages (nest : Plan.nest) ~sorted ~rows =
  let p2 = 2.0 *. Cost.pages rows in
  if nest.Plan.pipelined || (nest.Plan.assume_sorted && sorted) then
    (* single pass; one re-sort when the input is not already sorted *)
    if sorted then 0.0 else p2
  else
    (* materialize the nested relation and sort it, then a separate
       selection pass *)
    2.0 *. p2

(* ---------- one statement's pricing context ---------- *)

(* Plans of one statement share their sites, and a normalized plan is
   determined by its sites' impls, so a plan's signature is one byte per
   site, in [Plan.nodes] order.  [priced] keeps each signature's
   estimate: its costline and the cost model's walk, which is the NRA
   strategy's estimate. *)
type priced = { line : costline; walk : Cost.breakdown }
type ctx = {
  env : Nra_stats.Cardinality.env;
  priced : (string, priced) Hashtbl.t;
}

let context env = { env; priced = Hashtbl.create 32 }

let impl_code = function
  | Plan.Shared_set -> '\000'
  | Plan.Push_down -> '\001'
  | Plan.Semijoin -> '\002'
  | Plan.Bottom_up nf | Plan.Top_down nf as impl ->
      Char.unsafe_chr
        ((match impl with Plan.Bottom_up _ -> 3 | _ -> 7)
        + (if nf.Plan.pipelined then 1 else 0)
        + if nf.Plan.assume_sorted then 2 else 0)

let signature sites =
  let sg = Bytes.create (List.length sites) in
  List.iteri
    (fun i (n : Plan.node) -> Bytes.set sg i (impl_code n.Plan.impl))
    sites;
  sg

let walk_plan env (p : Plan.t) =
  let sorted = presorted p in
  let nest_seq = ref 0.0 in
  let nest (n : Plan.node) nf ~rows =
    let sorted = List.mem n.Plan.child.A.block.A.id sorted in
    nest_seq := !nest_seq +. nest_pages nf ~sorted ~rows
  in
  let walk = Cost.plan_breakdown ~nest env p in
  let bd = { walk with Cost.seq_pages = walk.Cost.seq_pages +. !nest_seq } in
  {
    line =
      {
        seq = bd.Cost.seq_pages;
        rand = bd.Cost.rand_pages;
        fetch = bd.Cost.fetched_rows;
        ms = Cost.price bd;
      };
    walk;
  }

(* The estimate of [sg]'s plan, which is [plan ()]: the kept one, or a
   walk kept under a copy of [sg].  Looking up reads [sg] in place, so
   a caller may reuse its bytes afterwards. *)
let price ctx sg plan =
  match Hashtbl.find ctx.priced (Bytes.unsafe_to_string sg) with
  | pr -> pr
  | exception Not_found ->
      let pr = walk_plan ctx.env (plan ()) in
      Hashtbl.add ctx.priced (Bytes.to_string sg) pr;
      pr

let walk ctx p = (price ctx (signature (Plan.nodes p)) (fun () -> p)).walk

(* ---------- rules ---------- *)

(* A rule proposes a new impl for one node, or nothing; a proposal is
   made only where the new impl is admissible, so one that survives the
   cost gate always runs. *)
let propose (rule : Config.rule) (n : Plan.node) : Plan.impl option =
  let candidate =
    match (rule, n.Plan.impl) with
    | Config.Semijoin, (Plan.Bottom_up _ | Plan.Top_down _) ->
        Some Plan.Semijoin
    | Config.Push_down, (Plan.Bottom_up _ | Plan.Top_down _) ->
        Some Plan.Push_down
    | Config.Pipeline, Plan.Bottom_up nf when not nf.Plan.pipelined ->
        Some (Plan.Bottom_up { nf with Plan.pipelined = true })
    | Config.Pipeline, Plan.Top_down nf when not nf.Plan.pipelined ->
        Some (Plan.Top_down { nf with Plan.pipelined = true })
    | Config.Fuse_nests, Plan.Bottom_up nf
      when (not nf.Plan.pipelined) && not nf.Plan.assume_sorted ->
        Some (Plan.Bottom_up { nf with Plan.assume_sorted = true })
    | Config.Fuse_nests, Plan.Top_down nf
      when (not nf.Plan.pipelined) && not nf.Plan.assume_sorted ->
        Some (Plan.Top_down { nf with Plan.assume_sorted = true })
    | _ -> None
  in
  match candidate with
  | Some impl when Plan.admits n impl -> candidate
  | _ -> None

(* ---------- the engine ---------- *)

type verdict = Fired | Skipped of string

type trace_entry = {
  rule : Config.rule;
  block_id : int;
  impl_before : Plan.impl;
  impl_after : Plan.impl;
  cost_before : costline;
  cost_after : costline;
  verdict : verdict;
}

type result = {
  dirs : Plan.t;
  changed : bool;
  trace : trace_entry list;
  before : costline;
  after : costline;
}

(* rule application order: structural conversions first (they remove
   whole intermediates), then the nest-shape refinements *)
let rule_order =
  [ Config.Semijoin; Config.Push_down; Config.Pipeline; Config.Fuse_nests ]

let max_passes = 4
let eps = 1e-9

(* One search's state.  [sites] and [sg] are [plan]'s nodes and
   signature. *)
type search = {
  ctx : ctx;
  mutable plan : Plan.t;
  mutable sites : Plan.node list;
  sg : Bytes.t;
  mutable cost : costline;
  mutable trace : trace_entry list;
  mutable changed : bool;
  mutable progressed : bool;
  mutable pass_no : int;
}

let edit (p : Plan.t) ~id ~impl = Plan.renormalize (Plan.replace p ~id ~impl)

(* Propose [rule] at site [i], [n] as the sweep began, and price the
   edit on the current plan: the signature is the current one with
   site [i] replaced, so a plan already priced is not built. *)
let try_site s rule i (n : Plan.node) =
  match propose rule n with
  | None -> ()
  | Some impl ->
      let id = n.Plan.child.A.block.A.id in
      let code = Bytes.get s.sg i in
      Bytes.set s.sg i (impl_code impl);
      let cost' = (price s.ctx s.sg (fun () -> edit s.plan ~id ~impl)).line in
      Bytes.set s.sg i code;
      let record verdict =
        s.trace <-
          {
            rule;
            block_id = id;
            impl_before = n.Plan.impl;
            impl_after = impl;
            cost_before = s.cost;
            cost_after = cost';
            verdict;
          }
          :: s.trace
      in
      if cost'.ms < s.cost.ms -. eps then begin
        record Fired;
        s.plan <- edit s.plan ~id ~impl;
        s.sites <- Plan.nodes s.plan;
        Bytes.set s.sg i (impl_code impl);
        s.cost <- cost';
        s.changed <- true;
        s.progressed <- true
      end
      else if s.pass_no = 1 then
        (* record the gate's refusals once, for explain *)
        record (Skipped "no estimated improvement")

(* a rule's sweep runs over the sites as it began: a fired edit changes
   [s.plan], not the proposals still to come *)
let rec sweep s rule i = function
  | [] -> ()
  | n :: rest ->
      try_site s rule i n;
      sweep s rule (i + 1) rest

let rewrite ~rules ctx (start : Plan.t) : result =
  let active = List.filter (fun r -> List.mem r rules) rule_order in
  let sites = Plan.nodes start in
  let sg = signature sites in
  let before = (price ctx sg (fun () -> start)).line in
  let s =
    {
      ctx;
      plan = start;
      sites;
      sg;
      cost = before;
      trace = [];
      changed = false;
      progressed = true;
      pass_no = 0;
    }
  in
  while s.progressed && s.pass_no < max_passes do
    s.progressed <- false;
    s.pass_no <- s.pass_no + 1;
    List.iter (fun rule -> sweep s rule 0 s.sites) active
  done;
  {
    dirs = s.plan;
    changed = s.changed;
    trace = List.rev s.trace;
    before;
    after = s.cost;
  }

(* ---------- rendering for explain --costs ---------- *)

let site (e : trace_entry) =
  Printf.sprintf "block %d: %s → %s" e.block_id
    (Plan.impl_to_string e.impl_before)
    (Plan.impl_to_string e.impl_after)

let trace_lines (r : result) =
  let line (e : trace_entry) =
    let verdict =
      match e.verdict with
      | Fired -> "fired"
      | Skipped reason -> Printf.sprintf "skipped (%s)" reason
    in
    Printf.sprintf "  %-10s %-45s %8.1f → %8.1f ms  %s"
      (Config.rule_to_string e.rule)
      (site e) e.cost_before.ms e.cost_after.ms verdict
  in
  List.map line r.trace
