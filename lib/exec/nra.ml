open Nra_relational
open Nra_planner
module A = Analyze
module R = Resolved
module T3 = Three_valued
module J = Nra_algebra.Join
module Ast = Nra_sql.Ast

type options = {
  pipelined : bool;
  nest_impl : [ `Sort | `Hash ];
  bottom_up_linear : bool;
  push_down_nest : bool;
  positive_simplify : bool;
}

let original =
  {
    pipelined = false;
    nest_impl = `Sort;
    bottom_up_linear = false;
    push_down_nest = false;
    positive_simplify = false;
  }

let optimized = { original with pipelined = true }

let full =
  {
    pipelined = true;
    nest_impl = `Sort;
    bottom_up_linear = true;
    push_down_nest = true;
    positive_simplify = true;
  }

(* ---------- per-site rewrite directives ----------

   The optimizer (nra.opt) speaks to this executor through per-child
   directives keyed by block id: which of the five linking
   implementations to run at that site, and — for the join+nest paths —
   whether the nest is pipelined and whether its input may be assumed
   already key-sorted (adjacent-nest fusion).  [n_assume_sorted] is a
   hint, not a command: it is honored only when the executor's own
   sorted-prefix tracking agrees at runtime, so a wrong hint degrades to
   the unfused plan instead of to wrong groups.  A block with no
   directive (or a directive whose structural preconditions do not hold
   here) falls back to the options-driven decision chain, which is
   byte-identical to the pre-directive executor. *)

type nest_directive = { n_pipelined : bool; n_assume_sorted : bool }

type link_impl =
  | D_shared_set
  | D_push_down
  | D_semijoin
  | D_bottom_up of nest_directive
  | D_top_down of nest_directive

type directives = (int * link_impl) list

type stats = {
  mutable peak_intermediate_rows : int;
  mutable total_intermediate_rows : int;
  mutable nest_select_seconds : float;
  mutable join_seconds : float;
  mutable fused_sites : int;
}

let now () = Unix.gettimeofday ()

(* ---------- structural checks ---------- *)

let self_contained = A.self_contained
let equi_correlation = A.equi_correlation

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

let apply_mode mode verdict key elems out =
  match mode with
  | Discard -> if T3.to_bool (verdict key elems) then key :: out else out
  | Pad pad ->
      if T3.to_bool (verdict key elems) then key :: out
      else begin
        let padded = Array.copy key in
        Array.iter (fun i -> padded.(i) <- Value.Null) pad;
        padded :: out
      end

(* a directive overrides the options: a fused nest ([n_assume_sorted]
   confirmed by the runtime [sorted] flag) takes the single-pass run
   scan, which on key-sorted input produces exactly the groups (and
   group order) the materialized nest would *)
let nest_pipelined opts flags ~sorted =
  match flags with
  | Some f -> f.n_pipelined || (f.n_assume_sorted && sorted)
  | None -> opts.pipelined

(* The staging relation holds the nest-by attributes as a prefix and the
   keep columns after them; [nest_select] computes υ followed by the
   linking selection, either as two materialized passes (original) or
   fused into one group scan over sorted input (optimized, at a site
   whose wide frame fed its grandchildren; other pipelined sites take
   [fused_nest_select] and never stage). *)
let nest_select opts ?flags st ~key_schema ~keep ~verdict ~mode ~sorted wide =
  let t0 = now () in
  let pipelined = nest_pipelined opts flags ~sorted in
  let key_arity = Schema.arity key_schema in
  let prefix =
    List.init key_arity (fun i -> (Expr.Col i, Schema.col key_schema i))
  in
  let staging = Nra_algebra.Basic.project_exprs (prefix @ keep) wide in
  let by = Array.init key_arity Fun.id in
  let keep_pos =
    Array.init (List.length keep) (fun i -> key_arity + i)
  in
  (* the pre-nest flat staging is governed: charged to the memory
     ledger and routed through a spill partition when it would not fit
     the frame budget (byte-identical either way) *)
  let result, emitted_sorted =
    Nra_storage.Governor.with_staged ~label:"nest-staging" staging
    @@ fun staging ->
    if not pipelined then begin
      (* original: materialize the nested relation, then select *)
      let grouped =
        match opts.nest_impl with
        | `Sort -> Nra_nested.Grouped.nest_sort ~by ~keep:keep_pos staging
        | `Hash -> Nra_nested.Grouped.nest_hash ~by ~keep:keep_pos staging
      in
      let out = ref [] in
      Array.iter
        (fun (key, elems) ->
          Nra_guard.Guard.tick ();
          out := apply_mode mode verdict key (Array.to_list elems) !out)
        grouped.Nra_nested.Grouped.groups;
      (Relation.of_rows key_schema (List.rev !out), opts.nest_impl = `Sort)
    end
    else begin
      (* optimized: single pass over (at most once re-)sorted input; the
         run scan needs adjacent groups, so sortedness is mandatory *)
      let staging =
        if sorted then staging else Relation.sort_by by staging
      in
      let rows = Relation.rows staging in
      let n = Array.length rows in
      let out = ref [] in
      let i = ref 0 in
      while !i < n do
        Nra_guard.Guard.tick ();
        let start = !i in
        let key = Row.project_arr rows.(start) by in
        let elems = ref [] in
        while !i < n && Row.equal_on by rows.(start) rows.(!i) do
          elems := Row.project_arr rows.(!i) keep_pos :: !elems;
          incr i
        done;
        out := apply_mode mode verdict key (List.rev !elems) !out
      done;
      (Relation.of_rows key_schema (List.rev !out), true)
    end
  in
  st.nest_select_seconds <- st.nest_select_seconds +. (now () -. t0);
  (result, emitted_sorted)

(* The fused probe–nest–select of a pipelined site whose wide frame
   feeds no grandchild: the nest groups the join's per-outer-row match
   lists directly, so neither the wide product nor a staging copy is
   built, and only the (narrow) outer rows are sorted.

   Byte-identical to joining, staging, stably sorting the staging on
   the outer columns and scanning runs: the staging row of outer row
   [i]'s [k]-th match sits at wide position (i, k), so the stable sort
   orders rows by outer value, then by [i], then by [k].  A stable sort
   of outer positions followed by a scan that merges runs of equal outer
   rows (σ̄ padding can make distinct outer rows equal) and appends each
   row's matches in build order visits exactly that sequence.  An
   unmatched outer row contributes the element the NULL-padded wide row
   would have.  Keep expressions are remapped into the right frame; only
   one that reads an outer column needs the concatenated row. *)
let fused_nest_select st ~key_schema ~keep ~verdict ~mode ~sorted rel
    child_rel matches =
  let t0 = now () in
  let key_arity = Schema.arity key_schema in
  let right_nulls = Row.nulls (Schema.arity (Relation.schema child_rel)) in
  let exprs = Array.of_list (List.map fst keep) in
  let reads_outer s =
    List.exists (fun i -> i < key_arity) (Expr.scalar_cols s)
  in
  let elem_of =
    if Array.exists reads_outer exprs then fun lrow rrow ->
      Array.map (Expr.eval_scalar (Row.concat lrow rrow)) exprs
    else
      let right = Array.map (Expr.shift_scalar (-key_arity)) exprs in
      let cols = Array.map (function Expr.Col j -> j | _ -> -1) right in
      if Array.for_all (fun j -> j >= 0) cols then fun _ rrow ->
        Row.project_arr rrow cols
      else fun _ rrow -> Array.map (Expr.eval_scalar rrow) right
  in
  let outer = Relation.rows rel in
  let n = Array.length outer in
  let order = Array.init n Fun.id in
  if not sorted then
    Array.stable_sort (fun i j -> Row.compare outer.(i) outer.(j)) order;
  let out = ref [] in
  let k = ref 0 in
  while !k < n do
    Nra_guard.Guard.tick ();
    let key = outer.(order.(!k)) in
    let elems = ref [] in
    while !k < n && Row.equal key outer.(order.(!k)) do
      let i = order.(!k) in
      let lrow = outer.(i) in
      (match matches.(i) with
      | [] -> elems := elem_of lrow right_nulls :: !elems
      | ms ->
          List.iter (fun rrow -> elems := elem_of lrow rrow :: !elems) ms);
      incr k
    done;
    out := apply_mode mode verdict key (List.rev !elems) !out
  done;
  st.nest_select_seconds <- st.nest_select_seconds +. (now () -. t0);
  Relation.of_rows key_schema (List.rev !out)

(* ---------- the recursive driver ---------- *)

(* Site positivity: JA children (scalar_agg present) are never positive
   — an empty group aggregates to a value, so it must reach the linking
   selection instead of being discarded by σ or a semijoin. *)
let is_positive_site = A.child_positive

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
  Nra_storage.Fault.with_retries (fun () ->
      Nra_storage.Iosim.charge_fetch_rows n)

(* Per-row application of a linking predicate whose element set comes
   from a closure (virtual-cartesian-product and push-down paths). *)
let rowwise mode verdict elems_of rel =
  let out = ref [] in
  Array.iter
    (fun row ->
      Nra_guard.Guard.tick ();
      out := apply_mode mode verdict row (elems_of row) !out)
    (Relation.rows rel);
  Relation.of_rows (Relation.schema rel) (List.rev !out)

(* The five linking-site implementations, as a closed choice: the
   options-driven decision chain picks one (exactly as it always has),
   and a rewrite directive can pick one directly when its structural
   preconditions hold at this site. *)
type site_pick =
  | P_shared
  | P_push of (R.rcol * R.rexpr) list
  | P_semi
  | P_bottom of nest_directive option
  | P_top of nest_directive option

let rec process cat t opts dirs st ~discard_ok (rel, sorted_prefix)
    (p : A.block) =
  List.fold_left
    (fun acc c ->
      apply_child cat t opts dirs st ~discard_ok ~parent:p acc c)
    (rel, sorted_prefix) p.A.children

and reduce_standalone cat t opts dirs st (b : A.block) : Relation.t =
  let rel = Frame.block_relation b in
  let rel', _ = process cat t opts dirs st ~discard_ok:true (rel, 0) b in
  rel'

and apply_child cat t opts dirs st ~discard_ok ~parent (rel, sorted_prefix)
    (c : A.child) =
  let b = c.A.block in
  let key_schema = Relation.schema rel in
  let key_arity = Schema.arity key_schema in
  let mode =
    if discard_ok then Discard else Pad (block_positions key_schema parent)
  in
  let contained = self_contained b in
  let sp_after_select =
    match mode with
    | Discard -> key_arity
    | Pad _ -> key_arity - Array.length (block_positions key_schema parent)
  in
  let semi_ok =
    b.A.children = [] && discard_ok
    && is_positive_site c
    && b.A.correlated <> []
  in
  let legacy_pick () =
    if contained && b.A.correlated = [] then P_shared
    else
      match (opts.push_down_nest && contained, equi_correlation b) with
      | true, Some pairs -> P_push pairs
      | _ ->
          if opts.positive_simplify && semi_ok then P_semi
          else if opts.bottom_up_linear && contained then P_bottom None
          else P_top None
  in
  let pick =
    match List.assoc_opt b.A.id dirs with
    | Some D_shared_set when contained && b.A.correlated = [] -> P_shared
    | Some D_push_down when contained -> (
        match equi_correlation b with
        | Some pairs -> P_push pairs
        | None -> legacy_pick ())
    | Some D_semijoin when semi_ok -> P_semi
    | Some (D_bottom_up nf) when contained -> P_bottom (Some nf)
    | Some (D_top_down nf) -> P_top (Some nf)
    | _ -> legacy_pick ()
  in
  match pick with
  | P_shared ->
      (* virtual Cartesian product: the subquery is evaluated once and
         its value set shared by every outer tuple *)
      let child_red = reduce_standalone cat t opts dirs st b in
      let keep, verdict =
        Linkeval.verdict_and_keep ~key_schema
          ~wide_schema:(Relation.schema child_red) ~with_marker:false c
      in
      let elems =
        Array.to_list (Relation.rows child_red)
        |> List.map (fun row ->
               Array.of_list
                 (List.map (fun (s, _) -> Expr.eval_scalar row s) keep))
      in
      let rel' = rowwise mode verdict (fun _ -> elems) rel in
      (rel', min sorted_prefix sp_after_select)
  | P_push pairs ->
      (* §4.2.4: group the reduced child by its correlation key once;
         probe per outer tuple *)
      let child_red = reduce_standalone cat t opts dirs st b in
      let cschema = Relation.schema child_red in
      let keep, verdict =
        Linkeval.verdict_and_keep ~key_schema ~wide_schema:cschema
          ~with_marker:false c
      in
      let child_keys =
        Array.of_list
          (List.map (fun (col, _) -> Frame.to_scalar cschema (R.RCol col))
             pairs)
      in
      let outer_keys =
        Array.of_list
          (List.map (fun (_, e) -> Frame.to_scalar key_schema e) pairs)
      in
      let tbl : Row.t list ref Row.Tbl.t =
        Row.Tbl.create (max 16 (Relation.cardinality child_red))
      in
      Array.iter
        (fun row ->
          let key = Array.map (Expr.eval_scalar row) child_keys in
          if not (Array.exists Value.is_null key) then begin
            let elem =
              Array.of_list
                (List.map (fun (s, _) -> Expr.eval_scalar row s) keep)
            in
            match Row.Tbl.find_opt tbl key with
            | Some cell -> cell := elem :: !cell
            | None -> Row.Tbl.add tbl key (ref [ elem ])
          end)
        (Relation.rows child_red);
      let elems_of outer_row =
        let key = Array.map (Expr.eval_scalar outer_row) outer_keys in
        if Array.exists Value.is_null key then []
        else
          match Row.Tbl.find_opt tbl key with
          | Some cell -> List.rev !cell
          | None -> []
      in
      let rel' = rowwise mode verdict elems_of rel in
      (rel', min sorted_prefix sp_after_select)
  | P_semi ->
      (* §4.2.5: σ_{AθSOME{B}}(υ(R ⟕_C S)) = R ⋉_{C ∧ AθB} S *)
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
  | P_bottom flags ->
      (* §4.2.3: reduce the subquery standalone, then one outer join
         and one nest+selection at this level *)
      let child_red = reduce_standalone cat t opts dirs st b in
      join_nest_select cat t opts dirs st ?flags ~mode ~sorted_prefix
        ~sp_after_select rel c child_red ~recurse:false
  | P_top flags ->
      (* Algorithm 1, general top-down case *)
      let child_rel = Frame.block_relation b in
      join_nest_select cat t opts dirs st ?flags ~mode ~sorted_prefix
        ~sp_after_select rel c child_rel ~recurse:true

and join_nest_select cat t opts dirs st ?flags ~mode ~sorted_prefix
    ~sp_after_select rel (c : A.child) child_rel ~recurse =
  let b = c.A.block in
  let key_schema = Relation.schema rel in
  let key_arity = Schema.arity key_schema in
  let concat = Schema.append key_schema (Relation.schema child_rel) in
  (* uncorrelated at this level (correlated deeper down) is a genuine
     Cartesian product: [on] is then TRUE *)
  let on = Frame.to_pred concat b.A.correlated in
  let feeds_grandchildren = recurse && b.A.children <> [] in
  let sorted = sorted_prefix >= key_arity in
  if (not feeds_grandchildren) && nest_pipelined opts flags ~sorted then begin
    let t0 = now () in
    let matches = J.matches ~on rel child_rel in
    st.join_seconds <- st.join_seconds +. (now () -. t0);
    (* the logical wide cardinality: one row per match, one padded row
       per unmatched outer row *)
    let wide_rows =
      Array.fold_left (fun acc ms -> acc + max 1 (List.length ms)) 0 matches
    in
    record_intermediate st wide_rows;
    let keep, verdict =
      Linkeval.verdict_and_keep ~key_schema ~wide_schema:concat
        ~with_marker:true c
    in
    let rel' =
      Nra_storage.Governor.with_charged ~rows:wide_rows
        ~width:(Schema.arity concat) (fun () ->
          fused_nest_select st ~key_schema ~keep ~verdict ~mode ~sorted rel
            child_rel matches)
    in
    st.fused_sites <- st.fused_sites + 1;
    (rel', sp_after_select)
  end
  else begin
    let t0 = now () in
    let wide = J.join J.Left_outer ~on rel child_rel in
    st.join_seconds <- st.join_seconds +. (now () -. t0);
    record_intermediate st (Relation.cardinality wide);
    let wide, wide_sorted_prefix =
      if recurse then
        process cat t opts dirs st
          ~discard_ok:(mode = Discard && is_positive_site c)
          (wide, sorted_prefix) b
      else (wide, sorted_prefix)
    in
    let keep, verdict =
      Linkeval.verdict_and_keep ~key_schema
        ~wide_schema:(Relation.schema wide) ~with_marker:true c
    in
    let rel', emitted_sorted =
      (* the wide join product stays live while its staging is projected
         and nested — charge it for that extent so the governor's
         high-water mark reflects both *)
      Nra_storage.Governor.with_charged
        ~rows:(Relation.cardinality wide)
        ~width:(Schema.arity (Relation.schema wide))
        (fun () ->
          nest_select opts ?flags st ~key_schema ~keep ~verdict ~mode
            ~sorted:(wide_sorted_prefix >= key_arity)
            wide)
    in
    (rel', if emitted_sorted then sp_after_select else 0)
  end

(* ---------- entry points ---------- *)

let run_where ?(options = optimized) ?(directives = []) cat (t : A.t) =
  let st =
    {
      peak_intermediate_rows = 0;
      total_intermediate_rows = 0;
      nest_select_seconds = 0.0;
      join_seconds = 0.0;
      fused_sites = 0;
    }
  in
  let rel = Frame.block_relation t.A.root in
  let rel', _ =
    process cat t options directives st ~discard_ok:true (rel, 0) t.A.root
  in
  (rel', st)

let run ?options ?directives cat t =
  let rel, _ = run_where ?options ?directives cat t in
  Post.apply t.A.output rel

(* ---------- plan rendering (no execution) ---------- *)

let plan_description ?(options = optimized) (t : A.t) =
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
  let sel_str ~discard_ok (c : A.child) =
    if discard_ok then Format.sprintf "σ[%s]" (link_str c)
    else Format.sprintf "σ̄[%s] (pad the owning block)" (link_str c)
  in
  (* as in [join_nest_select]: a pipelined site whose wide frame feeds
     no grandchild runs the fused probe–nest–select *)
  let nest_note ~feeds_grandchildren =
    if not options.pipelined then ""
    else if feeds_grandchildren then " (pipelined)"
    else " (pipelined, fused with the probe)"
  in
  let rec walk depth ~discard_ok ~frame (p : A.block) =
    List.iter
      (fun (c : A.child) ->
        let b = c.A.block in
        let contained = self_contained b in
        if contained && b.A.correlated = [] then begin
          line depth "· subquery T%d is uncorrelated: evaluate once" b.A.id;
          walk (depth + 1) ~discard_ok:true ~frame:(block_label b) b;
          line depth "%s, against the shared value set" (sel_str ~discard_ok c)
        end
        else if options.push_down_nest && contained
                && equi_correlation b <> None then begin
          line depth "· §4.2.4 push-down: reduce T%d standalone" b.A.id;
          walk (depth + 1) ~discard_ok:true ~frame:(block_label b) b;
          line depth "group T%d by [%s]; probe per outer tuple; %s" b.A.id
            (conds b.A.correlated) (sel_str ~discard_ok c)
        end
        else if options.positive_simplify && b.A.children = [] && discard_ok
                && is_positive_site c
                && b.A.correlated <> [] then
          line depth "· §4.2.5: %s ⋉[%s ∧ %s] %s" frame
            (conds b.A.correlated) (link_str c) (block_label b)
        else if options.bottom_up_linear && contained then begin
          line depth "· §4.2.3 bottom-up: reduce T%d standalone" b.A.id;
          walk (depth + 1) ~discard_ok:true ~frame:(block_label b) b;
          line depth "%s ⟕[%s] T%d; ν by frame keep {linked, key#}; %s%s"
            frame (conds b.A.correlated) b.A.id (sel_str ~discard_ok c)
            (nest_note ~feeds_grandchildren:false)
        end
        else begin
          let frame' = frame ^ " ⟕ " ^ block_label b in
          line depth "%s ⟕[%s] %s" frame
            (if b.A.correlated = [] then "⨯"
             else conds b.A.correlated)
            (block_label b);
          walk (depth + 1)
            ~discard_ok:(discard_ok && is_positive_site c)
            ~frame:frame' b;
          line depth "ν by {%s …} keep {linked T%d attrs, %s#}; %s%s" frame
            b.A.id
            (Format.asprintf "%a" R.pp_expr (R.RCol b.A.marker))
            (sel_str ~discard_ok c)
            (nest_note ~feeds_grandchildren:(b.A.children <> []))
        end)
      p.A.children
  in
  line 0 "T1 := %s" (block_label t.A.root);
  walk 0 ~discard_ok:true ~frame:"T1" t.A.root;
  Buffer.contents buf
