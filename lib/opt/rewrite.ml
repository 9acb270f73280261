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

let cost_of env (p : Plan.t) =
  let sorted = presorted p in
  let nest_seq = ref 0.0 in
  let nest (n : Plan.node) nf ~rows =
    let sorted = List.mem n.Plan.child.A.block.A.id sorted in
    nest_seq := !nest_seq +. nest_pages nf ~sorted ~rows
  in
  let bd = Cost.plan_breakdown ~nest env p in
  let bd = { bd with Cost.seq_pages = bd.Cost.seq_pages +. !nest_seq } in
  {
    seq = bd.Cost.seq_pages;
    rand = bd.Cost.rand_pages;
    fetch = bd.Cost.fetched_rows;
    ms = Cost.price bd;
  }

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
  Option.bind candidate (fun impl ->
      if Plan.admissible { n with Plan.impl } then Some impl else None)

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

let rewrite ?rules env (start : Plan.t) : result =
  let rules =
    match rules with Some rs -> rs | None -> Config.rules ()
  in
  let active = List.filter (fun r -> List.mem r rules) rule_order in
  let plan = ref start in
  let cost = ref (cost_of env !plan) in
  let before = !cost in
  let trace = ref [] in
  let changed = ref false in
  let pass_no = ref 0 in
  let progressed = ref true in
  while !progressed && !pass_no < max_passes do
    progressed := false;
    incr pass_no;
    List.iter
      (fun rule ->
        List.iter
          (fun (n : Plan.node) ->
            match propose rule n with
            | None -> ()
            | Some impl ->
                let id = n.Plan.child.A.block.A.id in
                let candidate =
                  Plan.renormalize (Plan.replace !plan ~id ~impl)
                in
                let cost' = cost_of env candidate in
                let record verdict =
                  trace :=
                    {
                      rule;
                      block_id = id;
                      impl_before = n.Plan.impl;
                      impl_after = impl;
                      cost_before = !cost;
                      cost_after = cost';
                      verdict;
                    }
                    :: !trace
                in
                if cost'.ms < !cost.ms -. eps then begin
                  record Fired;
                  plan := candidate;
                  cost := cost';
                  changed := true;
                  progressed := true
                end
                else if !pass_no = 1 then
                  (* record the gate's refusals once, for explain *)
                  record (Skipped "no estimated improvement"))
          (Plan.nodes !plan))
      active
  done;
  {
    dirs = !plan;
    changed = !changed;
    trace = List.rev !trace;
    before;
    after = !cost;
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
