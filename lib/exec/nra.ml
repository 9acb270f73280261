open Nra_relational
open Nra_planner
module A = Analyze
module R = Resolved
module T3 = Three_valued
module J = Nra_algebra.Join
module LP = Nra_nested.Link_pred

type options = Plan.options = {
  pipelined : bool;
  bottom_up_linear : bool;
  push_down_nest : bool;
  positive_simplify : bool;
}

let original =
  {
    pipelined = false;
    bottom_up_linear = false;
    push_down_nest = false;
    positive_simplify = false;
  }

let optimized = { original with pipelined = true }

let full =
  {
    pipelined = true;
    bottom_up_linear = true;
    push_down_nest = true;
    positive_simplify = true;
  }

type stats = {
  mutable peak_intermediate_rows : int;
  mutable total_intermediate_rows : int;
  mutable nest_select_seconds : float;
  mutable join_seconds : float;
  mutable fused_sites : int;
}

let now () = Unix.gettimeofday ()

let block_positions schema (blk : A.block) =
  let uids = A.block_uids blk in
  let acc = ref [] in
  Array.iteri
    (fun i (c : Schema.column) ->
      if List.mem c.Schema.table uids then acc := i :: !acc)
    (Schema.columns schema);
  Array.of_list (List.rev !acc)

(* ---------- nest + linking selection ---------- *)

type mode = Discard | Pad of int array

let padded pad key =
  let row = Array.copy key in
  Array.iter (fun i -> row.(i) <- Value.Null) pad;
  row

(* σ keeps a group's key when its verdict is True; σ̄ keeps every key,
   NULL-padding the owning block's positions of a failed one *)
let emit mode verdict key out =
  if T3.to_bool verdict then key :: out
  else
    match mode with Discard -> out | Pad pad -> padded pad key :: out

(* a fused nest ([assume_sorted] confirmed by the runtime [sorted]
   flag) takes the single-pass run scan, which on key-sorted input
   produces exactly the groups (and group order) the materialized nest
   would *)
let nest_pipelined (nest : Plan.nest) ~sorted =
  nest.Plan.pipelined || (nest.Plan.assume_sorted && sorted)

(* The staging relation holds the nest-by attributes as a prefix and the
   keep columns after them; [nest_select] computes υ followed by the
   linking selection, either as two materialized passes (original) or
   fused into one group scan over sorted input (optimized, at a site
   whose wide frame fed its grandchildren; other pipelined sites take
   [fused_nest_select] and never stage).  Either way the output is
   key-sorted, and each group's verdict is one pass of the site's
   [Link_pred] fold. *)
let nest_select nest st ~key_schema ~(lk : Linkeval.t) ~mode ~sorted wide =
  let t0 = now () in
  let pipelined = nest_pipelined nest ~sorted in
  let key_arity = Schema.arity key_schema in
  let prefix =
    List.init key_arity (fun i -> (Expr.Col i, Schema.col key_schema i))
  in
  let staging = Nra_algebra.Basic.project_exprs (prefix @ lk.keep) wide in
  let by = Array.init key_arity Fun.id in
  let f = LP.fold lk.pred in
  (* the pre-nest flat staging is governed: charged to the memory
     ledger and routed through a spill partition when it would not fit
     the frame budget (byte-identical either way) *)
  let result =
    Nra_storage.Governor.with_staged staging
    @@ fun staging ->
    if not pipelined then begin
      (* original: materialize the nested relation, then select *)
      let keep_pos =
        Array.init (List.length lk.keep) (fun i -> key_arity + i)
      in
      let grouped =
        Nra_nested.Grouped.nest_sort ~by ~keep:keep_pos staging
      in
      let out = ref [] in
      Array.iter
        (fun (key, elems) ->
          Nra_guard.Guard.tick ();
          LP.start f ~outer:key;
          Array.iter (LP.step_elem f ~marker:lk.marker) elems;
          out := emit mode (LP.finish f) key !out)
        grouped.Nra_nested.Grouped.groups;
      Relation.of_rows key_schema (List.rev !out)
    end
    else begin
      (* optimized: single pass over (at most once re-)sorted input; the
         run scan needs adjacent groups, so sortedness is mandatory.
         Each element's linked value and marker are read in place from
         its staging row. *)
      let staging =
        if sorted then staging else Relation.sort_by by staging
      in
      let rows = Relation.rows staging in
      let n = Array.length rows in
      let linked = Option.map (fun i -> key_arity + i) lk.linked in
      let marker = Option.map (fun i -> key_arity + i) lk.marker in
      let out = ref [] in
      let i = ref 0 in
      while !i < n do
        Nra_guard.Guard.tick ();
        let start = !i in
        let key = Row.project_arr rows.(start) by in
        LP.start f ~outer:key;
        while !i < n && Row.equal_on by rows.(start) rows.(!i) do
          let row = rows.(!i) in
          (match marker with
          | Some m when Value.is_null row.(m) -> ()
          | _ ->
              if not (LP.decided f) then
                LP.step f
                  (match linked with Some l -> row.(l) | None -> Value.Null));
          incr i
        done;
        out := emit mode (LP.finish f) key !out
      done;
      Relation.of_rows key_schema (List.rev !out)
    end
  in
  st.nest_select_seconds <- st.nest_select_seconds +. (now () -. t0);
  result

(* An outer frame handed on as a one-table block's base rows plus the
   selection vector of its filter ({!Frame.with_block_input}),
   or as a relation ([None]); a consumer that cannot read through the
   selection gathers the rows [block_relation] would have built. *)
let gathered rel = function
  | None -> rel
  | Some (sel, count) -> Relation.gather rel sel count

(* Are the [n] rows [row 0] ... [row (n - 1)] already in [Row.compare]
   order?  Then a stable sort of their positions is the identity. *)
let in_key_order n row =
  let rec go i =
    i >= n || (Row.compare (row (i - 1)) (row i) <= 0 && go (i + 1))
  in
  go 1

(* The fused probe–nest–select of a pipelined site whose wide frame
   feeds no grandchild: the nest groups the join's per-outer-row match
   ranges ([Join.with_matches]' offset vectors) directly and the
   linking selection folds over them as it goes, so neither the wide
   product, a staging copy, nor an element row is built, and only the
   (narrow) outer rows are sorted — unless they are already in key
   order.  The output is listed as outer positions in a borrowed
   buffer and gathered once.  An outer frame that arrives as base rows
   plus a selection vector ([osel]) is read through it throughout: the
   offset vectors, the sort and the output list are indexed by selected
   position, and only the kept rows are ever gathered.

   Byte-identical to joining, staging, stably sorting the staging on
   the outer columns and scanning runs: the staging row of outer row
   [i]'s [k]-th match sits at wide position (i, k), so the stable sort
   orders rows by outer value, then by [i], then by [k].  A stable sort
   of outer positions followed by a scan that merges runs of equal outer
   rows (σ̄ padding can make distinct outer rows equal) and steps each
   row's matches in build order visits exactly that sequence.  An
   unmatched outer row contributes the element the NULL-padded wide row
   would have.  The linked value and the marker are read in place from
   the right row through keep expressions remapped into the right
   frame; only one that reads an outer column evaluates on the
   concatenated row. *)
let fused_nest_select st ~key_schema ~(lk : Linkeval.t) ~mode ~sorted ?osel
    rel child_rel (m : J.matches) =
  let t0 = now () in
  let crows = Relation.rows child_rel in
  let key_arity = Schema.arity key_schema in
  let right_nulls = Row.nulls (Schema.arity (Relation.schema child_rel)) in
  let reader pos =
    let s = fst (List.nth lk.keep pos) in
    if List.exists (fun i -> i < key_arity) (Expr.scalar_cols s) then
      fun lrow rrow -> Expr.eval_scalar (Row.concat lrow rrow) s
    else
      match Expr.shift_scalar (-key_arity) s with
      | Expr.Col j -> fun _ rrow -> rrow.(j)
      | s -> fun _ rrow -> Expr.eval_scalar rrow s
  in
  let linked =
    match lk.linked with Some p -> reader p | None -> fun _ _ -> Value.Null
  in
  let padding =
    match lk.marker with
    | Some p ->
        let m = reader p in
        fun lrow rrow -> Value.is_null (m lrow rrow)
    | None -> fun _ _ -> false
  in
  let f = LP.fold lk.pred in
  let step_one lrow rrow =
    if not (padding lrow rrow || LP.decided f) then
      LP.step f (linked lrow rrow)
  in
  let outer = Relation.rows rel in
  let n, row =
    match osel with
    | None -> (Array.length outer, Array.get outer)
    | Some (sel, count) -> (count, fun i -> outer.(Array.unsafe_get sel i))
  in
  let pos =
    if sorted || in_key_order n row then Fun.id
    else begin
      let order = Array.init n Fun.id in
      Array.stable_sort (fun i j -> Row.compare (row i) (row j)) order;
      Array.get order
    end
  in
  (* the output, as outer positions into a borrowed buffer: [i] keeps
     outer row [i], [-i - 1] keeps it padded *)
  Scratch.with_ints n @@ fun out ->
  let kept = ref 0 in
  let k = ref 0 in
  while !k < n do
    Nra_guard.Guard.tick ();
    let first = pos !k in
    let key = row first in
    LP.start f ~outer:key;
    while !k < n && Row.equal key (row (pos !k)) do
      let i = pos !k in
      let lrow = row i in
      if m.len.(i) = 0 then step_one lrow right_nulls
      else
        for q = m.off.(i) to m.off.(i) + m.len.(i) - 1 do
          step_one lrow crows.(m.pos.(q))
        done;
      incr k
    done;
    if T3.to_bool (LP.finish f) then begin
      out.(!kept) <- first;
      incr kept
    end
    else begin
      match mode with
      | Discard -> ()
      | Pad _ ->
          out.(!kept) <- -first - 1;
          incr kept
    end
  done;
  let rows =
    Array.init !kept (fun k ->
        let i = out.(k) in
        if i >= 0 then row i
        else
          match mode with
          | Pad pad -> padded pad (row (-i - 1))
          | Discard -> assert false)
  in
  st.nest_select_seconds <- st.nest_select_seconds +. (now () -. t0);
  Relation.make key_schema rows

(* ---------- the recursive driver ---------- *)

(* Allocation-pressure injection fires where a real row-budget
   exhaustion would: as an intermediate materializes under a finite row
   budget.  (A budget of [max_int] rows is effectively unlimited —
   benchmarks use it to measure pure checkpoint overhead — so it cannot
   "exhaust".)  The kill is the guard's own, so the unwind, the
   structured error, and Auto's fallback protocol are identical to the
   organic case. *)
let inject_alloc_pressure () =
  match Nra_guard.Guard.active () with
  | Some { Nra_guard.Guard.max_rows = Some m; _ }
    when m < max_int && Nra_storage.Fault.alloc_should_fail () ->
      raise
        (Nra_guard.Guard.Killed
           (Nra_guard.Guard.Budget_exceeded Nra_guard.Guard.Rows))
  | _ -> ()

(* [n] is the wide (outer-join) cardinality, whether or not the wide
   relation is materialized *)
let record_intermediate st n =
  st.total_intermediate_rows <- st.total_intermediate_rows + n;
  if n > st.peak_intermediate_rows then st.peak_intermediate_rows <- n;
  inject_alloc_pressure ();
  Nra_guard.Guard.add_rows n;
  (* the stored-procedure setting of the paper's Section 5.1 pays a
     per-tuple cost to fetch the intermediate result from the engine *)
  Nra_storage.Fault.retrying Nra_storage.Iosim.charge_fetch_rows n

(* Per-row application of a linking predicate whose sets are keyed
   apart from the outer relation (virtual-cartesian-product and
   push-down paths).  An outer frame handed on as base rows plus a
   selection ([?sel]) is read through it. *)
let rowwise mode decide ?sel rel =
  let rows = Relation.rows rel in
  let out = ref [] in
  let visit row =
    Nra_guard.Guard.tick ();
    out := emit mode (decide row) row !out
  in
  (match sel with
  | None -> Array.iter visit rows
  | Some (s, count) ->
      for i = 0 to count - 1 do
        visit rows.(s.(i))
      done);
  Relation.of_rows (Relation.schema rel) (List.rev !out)

(* The executor runs the plan as given: each node's [impl] picks one of
   the five linking-site implementations, and its [discard_ok] picks σ
   or σ̄.  A plan with a node whose structural preconditions do not hold
   at its site, or whose discard context disagrees with its position,
   is rejected before anything runs. *)
let check_plan (p : Plan.t) =
  List.iter2
    (fun (n : Plan.node) (expected : Plan.node) ->
      if n.Plan.discard_ok <> expected.Plan.discard_ok
         || not (Plan.admissible n)
      then
        invalid_arg
          (Printf.sprintf "Nra.run_where: %s%s is not admissible at block %d"
             (Plan.impl_to_string n.Plan.impl)
             (if n.Plan.discard_ok then "" else " σ̄")
             n.Plan.child.A.block.A.id))
    (Plan.nodes p)
    (Plan.nodes (Plan.renormalize p))

(* [?sel]: the block's outer frame arrives as base rows plus a
   selection ([gathered]); only the first site sees it, since every site
   hands the next one a relation *)
let rec process st ?sel (rel, sorted_prefix) (p : A.block) nodes =
  match nodes with
  | [] -> (gathered rel sel, sorted_prefix)
  | n :: rest ->
      process st (apply_child st ~parent:p ?sel (rel, sorted_prefix) n) p rest

and reduce_standalone st (n : Plan.node) : Relation.t =
  let b = n.Plan.child.A.block in
  let rel = Frame.block_relation b in
  let rel', _ = process st (rel, 0) b n.Plan.sub in
  rel'

(* a standalone child reduced, handed to [f]; a leaf child block that
   is one filtered table is handed on as its base rows plus the
   filter's selection vector ({!Frame.with_block_input}) *)
and with_reduced st (n : Plan.node) f =
  if n.Plan.sub = [] then Frame.with_block_input n.Plan.child.A.block f
  else f (reduce_standalone st n) None

and apply_child st ~parent ?sel (rel, sorted_prefix) (n : Plan.node) =
  let c = n.Plan.child in
  let b = c.A.block in
  let key_schema = Relation.schema rel in
  let key_arity = Schema.arity key_schema in
  let mode, sp_after_select =
    if n.Plan.discard_ok then (Discard, key_arity)
    else
      let pad = block_positions key_schema parent in
      (Pad pad, key_arity - Array.length pad)
  in
  match n.Plan.impl with
  | Plan.Shared_set ->
      (* virtual Cartesian product: the subquery is evaluated once and
         its value set — one set, under the empty key — shared by every
         outer tuple *)
      with_reduced st n @@ fun child_rel csel ->
      let lk =
        Linkeval.compile ~key_schema ~wide_schema:(Relation.schema child_rel)
          ~with_marker:false c
      in
      Linkeval.with_group ?sel:csel lk ~keys:[||] ~probe:[||] ~tick:false
        (Relation.rows child_rel)
      @@ fun set ->
      (rowwise mode (Linkeval.decide set) ?sel rel,
       min sorted_prefix sp_after_select)
  | Plan.Push_down ->
      (* §4.2.4: chain the reduced child by its correlation key once;
         probe per outer tuple *)
      let pairs = Option.get b.A.equi_correlation in
      with_reduced st n @@ fun child_rel csel ->
      let cschema = Relation.schema child_rel in
      let lk =
        Linkeval.compile ~key_schema ~wide_schema:cschema ~with_marker:false
          c
      in
      Linkeval.with_group ?sel:csel lk
        ~keys:(Linkeval.inner_keys cschema pairs)
        ~probe:(Linkeval.outer_keys key_schema pairs)
        ~tick:false
        (Relation.rows child_rel)
      @@ fun groups ->
      (rowwise mode (Linkeval.decide groups) ?sel rel,
       min sorted_prefix sp_after_select)
  | Plan.Semijoin ->
      (* §4.2.5: σ_{AθSOME{B}}(υ(R ⟕_C S)) = R ⋉_{C ∧ AθB} S *)
      let rel = gathered rel sel in
      let child_rel = Frame.block_relation b in
      let concat = Schema.append key_schema (Relation.schema child_rel) in
      let corr = Frame.to_pred concat b.A.correlated in
      let on =
        match (c.A.link, b.A.linked_attr) with
        | A.L_exists, _ -> corr
        | A.L_in a, Some e ->
            Expr.And
              (corr,
               Expr.Cmp (T3.Eq, Frame.to_scalar concat a,
                         Frame.to_scalar concat e))
        | A.L_quant (a, op, `Any), Some e ->
            Expr.And
              (corr,
               Expr.Cmp (op, Frame.to_scalar concat a,
                         Frame.to_scalar concat e))
        | _ -> assert false
      in
      let t0 = now () in
      let rel' = J.join J.Semi ~on rel child_rel in
      st.join_seconds <- st.join_seconds +. (now () -. t0);
      (rel', sorted_prefix) (* semijoin preserves left order *)
  | Plan.Bottom_up nest ->
      (* §4.2.3: reduce the subquery standalone, then one outer join
         and one nest+selection at this level *)
      let child_red = reduce_standalone st n in
      join_nest_select st nest ~mode ~sorted_prefix ~sp_after_select ?sel rel
        n (`Reduced child_red)
  | Plan.Top_down nest ->
      (* Algorithm 1, general top-down case *)
      join_nest_select st nest ~mode ~sorted_prefix ~sp_after_select ?sel rel
        n (`Block b)

and join_nest_select st nest ~mode ~sorted_prefix ~sp_after_select ?sel rel
    (n : Plan.node) child =
  let c = n.Plan.child in
  let b = c.A.block in
  let key_schema = Relation.schema rel in
  let key_arity = Schema.arity key_schema in
  (* uncorrelated at this level (correlated deeper down) is a genuine
     Cartesian product: [on] is then TRUE *)
  let concat_on child_rel =
    let concat = Schema.append key_schema (Relation.schema child_rel) in
    (concat, Frame.to_pred concat b.A.correlated)
  in
  let recurse = match child with `Block _ -> true | `Reduced _ -> false in
  let feeds_grandchildren = recurse && n.Plan.sub <> [] in
  let sorted = sorted_prefix >= key_arity in
  if (not feeds_grandchildren) && nest_pipelined nest ~sorted then begin
    (* a one-table child block with a filter is probed as its base rows
       through the filter's selection vector, and so is an outer frame
       handed on that way *)
    let with_input f =
      match child with
      | `Reduced r -> f r None
      | `Block b -> Frame.with_block_input b f
    in
    with_input @@ fun child_rel csel ->
    let concat, on = concat_on child_rel in
    let t0 = now () in
    J.with_matches ~on ?left_sel:sel ?sel:csel rel child_rel @@ fun m ->
    st.join_seconds <- st.join_seconds +. (now () -. t0);
    (* the logical wide cardinality: one row per match, one padded row
       per unmatched outer row *)
    let nouter =
      match sel with Some (_, c) -> c | None -> Relation.cardinality rel
    in
    let wide_rows = ref 0 in
    for i = 0 to nouter - 1 do
      wide_rows := !wide_rows + max 1 m.J.len.(i)
    done;
    let wide_rows = !wide_rows in
    record_intermediate st wide_rows;
    let lk =
      Linkeval.compile ~key_schema ~wide_schema:concat ~with_marker:true c
    in
    let rel' =
      Nra_storage.Governor.with_charged ~rows:wide_rows
        ~width:(Schema.arity concat) (fun () ->
          fused_nest_select st ~key_schema ~lk ~mode ~sorted ?osel:sel rel
            child_rel m)
    in
    st.fused_sites <- st.fused_sites + 1;
    (rel', sp_after_select)
  end
  else begin
    let rel = gathered rel sel in
    let child_rel =
      match child with `Reduced r -> r | `Block b -> Frame.block_relation b
    in
    let _, on = concat_on child_rel in
    let t0 = now () in
    let wide = J.join J.Left_outer ~on rel child_rel in
    st.join_seconds <- st.join_seconds +. (now () -. t0);
    record_intermediate st (Relation.cardinality wide);
    let wide, wide_sorted_prefix =
      if recurse then
        process st (wide, sorted_prefix) b n.Plan.sub
      else (wide, sorted_prefix)
    in
    let lk =
      Linkeval.compile ~key_schema ~wide_schema:(Relation.schema wide)
        ~with_marker:true c
    in
    let rel' =
      (* the wide join product stays live while its staging is projected
         and nested — charge it for that extent so the governor's
         high-water mark reflects both *)
      Nra_storage.Governor.with_charged
        ~rows:(Relation.cardinality wide)
        ~width:(Schema.arity (Relation.schema wide))
        (fun () ->
          nest_select nest st ~key_schema ~lk ~mode
            ~sorted:(wide_sorted_prefix >= key_arity)
            wide)
    in
    (rel', sp_after_select)
  end

(* ---------- entry points ---------- *)

let run_where ?(options = optimized) ?directives _cat (t : A.t) =
  let plan =
    match directives with
    | Some (p : Plan.t) when p.Plan.analyzed != t ->
        invalid_arg "Nra.run_where: the plan was lifted from another query"
    | Some p -> p
    | None -> Plan.lift ~base:options t
  in
  check_plan plan;
  let st =
    {
      peak_intermediate_rows = 0;
      total_intermediate_rows = 0;
      nest_select_seconds = 0.0;
      join_seconds = 0.0;
      fused_sites = 0;
    }
  in
  (* the root frame as base rows plus a selection where it is one
     filtered table: a fused site reads through it, any other consumer
     gathers exactly the rows [block_relation] builds *)
  Frame.with_block_input t.A.root @@ fun rel sel ->
  let rel', _ = process st ?sel (rel, 0) t.A.root plan.Plan.roots in
  (rel', st)

let run ?options ?directives cat t =
  let rel, _ = run_where ?options ?directives cat t in
  Post.apply t.A.output rel

(* ---------- plan rendering (no execution) ---------- *)

let plan_description (plan : Plan.t) =
  let buf = Buffer.create 256 in
  let line depth fmt =
    Format.kasprintf
      (fun s ->
        Buffer.add_string buf (String.make (2 * depth) ' ');
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let conds cs =
    String.concat " ∧ " (List.map (Format.asprintf "%a" R.pp_cond) cs)
  in
  let block_label (b : A.block) =
    let base =
      String.concat " ⨯ "
        (List.map (fun (bd : A.binding) -> bd.A.uid) b.A.bindings)
    in
    if b.A.local <> [] then Printf.sprintf "σ[%s](%s)" (conds b.A.local) base
    else base
  in
  let link_str (c : A.child) =
    (* a JA site compares against the per-group aggregate, not the raw
       element set — make that visible in the rendered plan *)
    let set =
      match c.A.block.A.scalar_agg with
      | Some (f, _) -> Printf.sprintf "{%s(…)}" (A.agg_name f)
      | None -> "{…}"
    in
    match c.A.link with
    | A.L_exists -> "EXISTS"
    | A.L_not_exists -> "NOT EXISTS"
    | A.L_in e -> Format.asprintf "%a IN %s" R.pp_expr e set
    | A.L_not_in e -> Format.asprintf "%a NOT IN %s" R.pp_expr e set
    | A.L_quant (e, op, q) ->
        Format.asprintf "%a %s %s %s" R.pp_expr e (T3.cmpop_to_string op)
          (match q with `Any -> "ANY" | `All -> "ALL")
          set
    | A.L_scalar (e, op) ->
        Format.asprintf "%a %s scalar%s" R.pp_expr e (T3.cmpop_to_string op)
          set
  in
  let sel_str (n : Plan.node) =
    if n.Plan.discard_ok then Format.sprintf "σ[%s]" (link_str n.Plan.child)
    else
      Format.sprintf "σ̄[%s] (pad the owning block)" (link_str n.Plan.child)
  in
  (* as in [join_nest_select]: a pipelined site whose wide frame feeds
     no grandchild runs the fused probe–nest–select *)
  let nest_note (nest : Plan.nest) ~feeds_grandchildren =
    if not nest.Plan.pipelined then ""
    else if feeds_grandchildren then " (pipelined)"
    else " (pipelined, fused with the probe)"
  in
  let rec walk depth ~frame nodes =
    List.iter
      (fun (n : Plan.node) ->
        let b = n.Plan.child.A.block in
        let standalone () =
          walk (depth + 1) ~frame:(block_label b) n.Plan.sub
        in
        match n.Plan.impl with
        | Plan.Shared_set ->
            line depth "· subquery T%d is uncorrelated: evaluate once" b.A.id;
            standalone ();
            line depth "%s, against the shared value set" (sel_str n)
        | Plan.Push_down ->
            line depth "· §4.2.4 push-down: reduce T%d standalone" b.A.id;
            standalone ();
            line depth "group T%d by [%s]; probe per outer tuple; %s" b.A.id
              (conds b.A.correlated) (sel_str n)
        | Plan.Semijoin ->
            line depth "· §4.2.5: %s ⋉[%s ∧ %s] %s" frame
              (conds b.A.correlated) (link_str n.Plan.child) (block_label b)
        | Plan.Bottom_up nest ->
            line depth "· §4.2.3 bottom-up: reduce T%d standalone" b.A.id;
            standalone ();
            line depth "%s ⟕[%s] T%d; ν by frame keep {linked, key#}; %s%s"
              frame (conds b.A.correlated) b.A.id (sel_str n)
              (nest_note nest ~feeds_grandchildren:false)
        | Plan.Top_down nest ->
            line depth "%s ⟕[%s] %s" frame
              (if b.A.correlated = [] then "⨯" else conds b.A.correlated)
              (block_label b);
            walk (depth + 1)
              ~frame:(frame ^ " ⟕ " ^ block_label b)
              n.Plan.sub;
            line depth "ν by {%s …} keep {linked T%d attrs, %s#}; %s%s" frame
              b.A.id
              (Format.asprintf "%a" R.pp_expr (R.RCol b.A.marker))
              (sel_str n)
              (nest_note nest ~feeds_grandchildren:(n.Plan.sub <> [])))
      nodes
  in
  let t = plan.Plan.analyzed in
  line 0 "T1 := %s" (block_label t.A.root);
  walk 0 ~frame:"T1" plan.Plan.roots;
  Buffer.contents buf
