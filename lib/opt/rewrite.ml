(* The rewrite engine: rules propose [impl] edits on the NRA plan, and
   an edit is applied only when the whole-plan Iosim estimate strictly
   improves.

   The estimate is the price ([Nra_stats.Cost.price]) of the cost
   model's walk over the plan ([Nra_stats.Cost.walk]): its scan and
   fetch charges, the ones the executor makes and the ones Auto ranks
   strategies by. *)

open Nra_planner
module A = Analyze
module Cost = Nra_stats.Cost
module Plan = Nra_exec.Plan

(* ---------- one statement's pricing context ---------- *)

(* A plan of the statement is determined by its signature
   ([Plan.signature]), so [priced] keeps one entry per signature: the
   cost model's walk, which is the NRA strategy's estimate, and its
   price.  A statement prices a handful of plans, so a list is the
   cheapest map. *)
type priced = { sg : string; walk : Cost.breakdown; ms : float }

type ctx = {
  env : Nra_stats.Cardinality.env;
  tally : Cost.tally;
  mutable priced : priced list;
}

let context env = { env; tally = Cost.tally (); priced = [] }

let rec lookup sg = function
  | [] -> raise Not_found
  | pr :: rest ->
      if String.equal pr.sg (Bytes.unsafe_to_string sg) then pr
      else lookup sg rest

(* The estimate of the plan [sg] names: the kept one, or a walk kept
   under a copy of [sg].  Looking up reads [sg] in place, so a caller
   may reuse its bytes afterwards. *)
let price ctx sg =
  match lookup sg ctx.priced with
  | pr -> pr
  | exception Not_found ->
      Cost.walk ctx.env sg ctx.tally;
      let walk = Cost.breakdown ctx.tally in
      let pr = { sg = Bytes.to_string sg; walk; ms = Cost.price walk } in
      ctx.priced <- pr :: ctx.priced;
      pr

let walk ctx p = (price ctx (Plan.signature p)).walk

(* ---------- rules ---------- *)

(* The rule's new impl for a site whose impl is [impl], or [impl] itself
   when it proposes nothing; a proposal is made only where the new impl
   is admissible, so one that survives the cost gate always runs. *)
let proposal (rule : Config.rule) ~discard_ok (c : A.child) impl =
  let candidate =
    match (rule, impl) with
    | Config.Semijoin, (Plan.Bottom_up _ | Plan.Top_down _) -> Plan.Semijoin
    | Config.Push_down, (Plan.Bottom_up _ | Plan.Top_down _) -> Plan.Push_down
    | _ -> impl
  in
  if candidate != impl && Plan.admits_at c ~discard_ok candidate then
    candidate
  else impl

let propose rule (n : Plan.node) =
  let impl =
    proposal rule ~discard_ok:n.Plan.discard_ok n.Plan.child n.Plan.impl
  in
  if impl == n.Plan.impl then None else Some impl

(* ---------- the engine ---------- *)

type verdict = Fired | Skipped of string

type trace_entry = {
  rule : Config.rule;
  block_id : int;
  impl_before : Plan.impl;
  impl_after : Plan.impl;
  cost_before : Cost.breakdown;
  cost_after : Cost.breakdown;
  verdict : verdict;
}

type result = {
  dirs : Plan.t;
  changed : bool;
  trace : trace_entry list;
  before : Cost.breakdown;
  after : Cost.breakdown;
}

(* rule application order: the semijoin removes a leaf's whole
   intermediate, so it is offered before push-down *)
let rule_order = [ Config.Semijoin; Config.Push_down ]

let max_passes = 4
let eps = 1e-9

(* One search's state: [sg] is the current plan's signature.  No plan
   is built while searching: a proposal is priced by the signature it
   would give, and the plan is built once, from the final signature. *)
type search = {
  ctx : ctx;
  sg : Bytes.t;
  mutable cost : priced;
  mutable trace : trace_entry list;
  mutable changed : bool;
  mutable progressed : bool;
  mutable pass_no : int;
}

let set_code sg i impl = Bytes.set sg i (Char.unsafe_chr (Plan.code impl))

(* Propose [rule] at site [i], whose impl and discard context are
   [impl] and [discard_ok] as the sweep began, and price the edit on the
   current plan: its signature with site [i] replaced. *)
let try_site s rule i (c : A.child) ~discard_ok impl =
  let impl' = proposal rule ~discard_ok c impl in
  if impl' != impl then begin
    set_code s.sg i impl';
    let cost' = price s.ctx s.sg in
    let fired = cost'.ms < s.cost.ms -. eps in
    (* the gate's refusals are recorded once, for explain *)
    if fired || s.pass_no = 1 then
      s.trace <-
        {
          rule;
          block_id = c.A.block.A.id;
          impl_before = impl;
          impl_after = impl';
          cost_before = s.cost.walk;
          cost_after = cost'.walk;
          verdict =
            (if fired then Fired else Skipped "no estimated improvement");
        }
        :: s.trace;
    if fired then begin
      s.cost <- cost';
      s.changed <- true;
      s.progressed <- true
    end
    else set_code s.sg i impl
  end

(* A rule's sweep over the sites [cs], the first at site [i], runs over
   the sites as it began: a fired edit changes [s.sg], not the proposals
   still to come.  Only earlier sites have changed when site [i] is
   reached, so its code is still the one the sweep began with, and the
   discard contexts follow from those codes. *)
let rec sweep s rule i ~discard_ok = function
  | [] -> i
  | (c : A.child) :: rest ->
      let impl = Plan.of_code (Char.code (Bytes.get s.sg i)) in
      try_site s rule i c ~discard_ok impl;
      let next =
        sweep s rule (i + 1)
          ~discard_ok:(Plan.sub_discard ~discard_ok impl c)
          c.A.block.A.children
      in
      sweep s rule next ~discard_ok rest

let rec sweeps s ~rules roots = function
  | [] -> ()
  | rule :: rest ->
      if List.mem rule rules then
        ignore (sweep s rule 0 ~discard_ok:true roots : int);
      sweeps s ~rules roots rest

let rewrite ~rules ctx (start : Plan.t) : result =
  let sg = Plan.signature start in
  let before = price ctx sg in
  let s =
    {
      ctx;
      sg;
      cost = before;
      trace = [];
      changed = false;
      progressed = true;
      pass_no = 0;
    }
  in
  let roots = start.Plan.analyzed.A.root.A.children in
  while s.progressed && s.pass_no < max_passes do
    s.progressed <- false;
    s.pass_no <- s.pass_no + 1;
    sweeps s ~rules roots rule_order
  done;
  {
    dirs = (if s.changed then Plan.of_codes start.Plan.analyzed sg else start);
    changed = s.changed;
    trace = List.rev s.trace;
    before = before.walk;
    after = s.cost.walk;
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
      (site e)
      (Cost.price e.cost_before)
      (Cost.price e.cost_after)
      verdict
  in
  List.map line r.trace
