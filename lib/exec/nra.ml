open Nra_relational
open Nra_planner
module A = Analyze
module R = Resolved
module T3 = Three_valued
module J = Nra_algebra.Join
module LP = Nra_nested.Link_pred
module G = Nra_nested.Grouped

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

(* ---------- frames ---------- *)

(* A frame is a relation's base rows plus an optional selection
   [(sel, count)]: frame row [i] is base row [sel.(i)], for
   [i < count].  A one-table block's filter ({!Frame.with_block_input})
   and every σ site hand their frame on that way, as positions in a
   buffer borrowed from {!Scratch} that lives until the frame's
   consumer ends; a consumer that needs rows (the wide outer join, a
   σ̄ site's padding, [run_where]'s caller) gathers them once. *)
let frame_rows rel sel =
  let rows = Relation.rows rel in
  match sel with
  | None -> (Array.length rows, Array.get rows)
  | Some (s, count) -> (count, fun i -> rows.(Array.unsafe_get s i))

let frame_count rel = function
  | None -> Relation.cardinality rel
  | Some (_, count) -> count

let base_pos sel i =
  match sel with None -> i | Some (s, _) -> Array.unsafe_get s i

let gathered rel = function
  | None -> rel
  | Some (sel, count) -> Relation.gather rel sel count

(* ---------- nest + linking selection ---------- *)

type mode = G.mode = Discard | Pad of int array

(* A site that decides its outer frame row by row writes its output
   into [out] as it goes: base position [p] keeps base row [p], and
   under σ̄, [-p - 1] keeps it padded. *)
let record mode out kept p verdict =
  if T3.to_bool verdict then begin
    out.(!kept) <- p;
    incr kept
  end
  else
    match mode with
    | Discard -> ()
    | Pad _ ->
        out.(!kept) <- -p - 1;
        incr kept

(* The output frame of such a site over [rel] through [sel].  [fill out]
   decides the frame and returns how many entries it [record]ed.  The
   buffer is borrowed before the site's own scopes (its child's input,
   the probe's vectors), which end before [k] runs.  Under σ it is the
   next frame's selection over the same base rows and lives until [k]
   ends; under σ̄ the rows are built (a padded row is new) and the
   buffer is returned first. *)
let site_output mode rel sel ~sorted_prefix k fill =
  let n = frame_count rel sel in
  match mode with
  | Discard ->
      Scratch.with_ints n @@ fun out ->
      let kept = fill out in
      k rel (Some (out, kept)) sorted_prefix
  | Pad pad ->
      let rows = Relation.rows rel in
      let rel' =
        Scratch.with_ints n @@ fun out ->
        let kept = fill out in
        Relation.make (Relation.schema rel)
          (Array.init kept (fun j ->
               let p = out.(j) in
               if p >= 0 then rows.(p) else G.padded pad rows.(-p - 1)))
      in
      k rel' None sorted_prefix

(* a fused nest ([assume_sorted] confirmed by the runtime [sorted]
   flag) takes the single-pass run scan, which on key-sorted input
   produces exactly the groups (and group order) the materialized nest
   would *)
let nest_pipelined (nest : Plan.nest) ~sorted =
  nest.Plan.pipelined || (nest.Plan.assume_sorted && sorted)

(* a keep expression read in place from a wide-frame row *)
let keep_reader (lk : Linkeval.t) pos =
  match fst (List.nth lk.keep pos) with
  | Expr.Col j -> fun row -> row.(j)
  | s -> fun row -> Expr.eval_scalar row s

(* [nest_select] computes υ followed by the linking selection over the
   wide frame ([wide] through [sel]), whose key attributes are its
   first [key_arity] columns, either as two materialized passes over a
   staging of the keys and the keep columns (original) or fused into one
   group scan over key-sorted input (optimized, at a site whose wide
   frame fed its grandchildren; other pipelined sites take
   [fused_nest_select]).  The fused scan sorts the frame's positions,
   not rows, and reads each element's linked value and marker in place
   from its wide row, so it builds no staging; the governor is charged
   the staging the original builds either way.  The output is
   key-sorted, and each group's verdict is one pass of the site's
   [Link_pred] fold. *)
let nest_select nest st ~key_schema ~(lk : Linkeval.t) ~mode ~sorted ?sel
    wide =
  let t0 = now () in
  let key_arity = Schema.arity key_schema in
  let by = Array.init key_arity Fun.id in
  let n, row = frame_rows wide sel in
  (* the pre-nest staging is governed: charged to the memory ledger and
     routed through a spill partition when it would not fit the frame
     budget (byte-identical either way) *)
  let staged =
    Nra_storage.Governor.with_staged ~rows:n
      ~width:(key_arity + List.length lk.keep)
  in
  let result =
    if not (nest_pipelined nest ~sorted) then begin
      (* original: materialize the nested relation, then select *)
      let prefix =
        List.init key_arity (fun i -> (Expr.Col i, Schema.col key_schema i))
      in
      let staging =
        Nra_algebra.Basic.project_exprs ?sel (prefix @ lk.keep) wide
      in
      staged @@ fun () ->
      let keep_pos =
        Array.init (List.length lk.keep) (fun i -> key_arity + i)
      in
      G.select mode lk.pred ~marker:lk.marker
        (G.nest_sort ~by ~keep:keep_pos staging)
    end
    else
      staged @@ fun () ->
      (* optimized: single pass over (at most once re-)sorted positions;
         the run scan needs adjacent groups, so sortedness is mandatory.
         A stable sort of positions by the key prefix orders the rows as
         a stable sort of their staging rows would. *)
      let f = LP.fold lk.pred in
      let pos =
        if sorted then Fun.id
        else begin
          let order = Array.init n Fun.id in
          Array.stable_sort
            (fun i j -> Row.compare_on by (row i) (row j))
            order;
          Array.get order
        end
      in
      let linked =
        match lk.linked with
        | Some p -> keep_reader lk p
        | None -> fun _ -> Value.Null
      in
      let padding =
        match lk.marker with
        | Some p ->
            let m = keep_reader lk p in
            fun r -> Value.is_null (m r)
        | None -> fun _ -> false
      in
      let out = ref [] in
      let i = ref 0 in
      while !i < n do
        Nra_guard.Guard.tick ();
        let first = row (pos !i) in
        let key = Row.project_arr first by in
        LP.start f ~outer:key;
        while !i < n && Row.equal_on by first (row (pos !i)) do
          let r = row (pos !i) in
          if not (padding r || LP.decided f) then LP.step f (linked r);
          incr i
        done;
        out := G.emit mode (LP.finish f) key !out
      done;
      Relation.of_rows key_schema (List.rev !out)
  in
  st.nest_select_seconds <- st.nest_select_seconds +. (now () -. t0);
  result

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
   order.  The outer frame ([rel] through [osel]) is read through its
   selection throughout: the offset vectors and the sort are indexed by
   frame position, and each group's verdict is [record]ed into [out]
   under its first row's base position.

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
    ~out rel child_rel (m : J.matches) =
  let t0 = now () in
  let crows = Relation.rows child_rel in
  let key_arity = Schema.arity key_schema in
  let right_arity = Schema.arity (Relation.schema child_rel) in
  let right_nulls = Row.nulls right_arity in
  (* a keep expression that reads an outer column evaluates on one
     reused wide row: the outer row is written into it once per outer
     row and each element once, however many expressions read them *)
  let wide = Array.make (key_arity + right_arity) Value.Null in
  let bound_l = ref [||] and bound_r = ref [||] in
  let widen lrow rrow =
    if lrow != !bound_l then begin
      Array.blit lrow 0 wide 0 key_arity;
      bound_l := lrow
    end;
    if rrow != !bound_r then begin
      Array.blit rrow 0 wide key_arity right_arity;
      bound_r := rrow
    end;
    wide
  in
  let reader pos =
    let s = fst (List.nth lk.keep pos) in
    if List.exists (fun i -> i < key_arity) (Expr.scalar_cols s) then
      fun lrow rrow -> Expr.eval_scalar (widen lrow rrow) s
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
  let n, row = frame_rows rel osel in
  let pos =
    if sorted || in_key_order n row then Fun.id
    else begin
      let order = Array.init n Fun.id in
      Array.stable_sort (fun i j -> Row.compare (row i) (row j)) order;
      Array.get order
    end
  in
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
    record mode out kept (base_pos osel first) (LP.finish f)
  done;
  st.nest_select_seconds <- st.nest_select_seconds +. (now () -. t0);
  !kept

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
   apart from the outer frame (virtual-cartesian-product and push-down
   paths), [record]ed into [out]. *)
let rowwise mode decide ?sel rel out =
  let n, row = frame_rows rel sel in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    Nra_guard.Guard.tick ();
    record mode out kept (base_pos sel i) (decide (row i))
  done;
  !kept

(* The executor runs the plan as given: each node's [impl] picks one of
   the five linking-site implementations, and its [discard_ok] picks σ
   or σ̄.  A plan with a node whose structural preconditions do not hold
   at its site, or whose discard context disagrees with its position,
   is rejected before anything runs. *)
let rec check_nodes ~discard_ok = function
  | [] -> ()
  | (n : Plan.node) :: rest ->
      if n.Plan.discard_ok <> discard_ok || not (Plan.admissible n) then
        invalid_arg
          (Printf.sprintf "Nra.run_where: %s%s is not admissible at block %d"
             (Plan.impl_to_string n.Plan.impl)
             (if n.Plan.discard_ok then "" else " σ̄")
             n.Plan.child.A.block.A.id);
      check_nodes
        ~discard_ok:(Plan.sub_discard ~discard_ok n.Plan.impl n.Plan.child)
        n.Plan.sub;
      check_nodes ~discard_ok rest

let check_plan (p : Plan.t) = check_nodes ~discard_ok:true p.Plan.roots

(* where a site hands its output frame: base rows, selection, and how
   many leading columns are known sorted *)
type 'a frame_k = Relation.t -> (int array * int) option -> int -> 'a

(* The block's sites, in order, over the frame [rel] through [?sel]
   whose first [sorted_prefix] columns are known sorted; [k] receives
   the last site's output frame. *)
let rec process :
    'a. stats -> ?sel:int array * int -> Relation.t * int -> A.block ->
    Plan.node list -> 'a frame_k -> 'a =
 fun st ?sel (rel, sorted_prefix) p nodes k ->
  match nodes with
  | [] -> k rel sel sorted_prefix
  | n :: rest ->
      apply_child st ~parent:p ?sel (rel, sorted_prefix) n
      @@ fun rel sel sorted_prefix ->
      process st ?sel (rel, sorted_prefix) p rest k

(* a child reduced standalone — its block's input
   ({!Frame.with_block_input}) under the child's own sites — handed to
   [f] as a frame *)
and with_reduced :
    'a. stats -> Plan.node ->
    (Relation.t -> (int array * int) option -> 'a) -> 'a =
 fun st n f ->
  let b = n.Plan.child.A.block in
  Frame.with_block_input b @@ fun rel sel ->
  process st ?sel (rel, 0) b n.Plan.sub (fun rel sel _ -> f rel sel)

and apply_child :
    'a. stats -> parent:A.block -> ?sel:int array * int ->
    Relation.t * int -> Plan.node -> 'a frame_k -> 'a =
 fun st ~parent ?sel (rel, sorted_prefix) n k ->
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
      site_output mode rel sel
        ~sorted_prefix:(min sorted_prefix sp_after_select) k
      @@ fun out ->
      with_reduced st n @@ fun child_rel csel ->
      let lk =
        Linkeval.compile ~key_schema ~wide_schema:(Relation.schema child_rel)
          ~with_marker:false c
      in
      Linkeval.with_group ?sel:csel lk ~keys:[||] ~probe:[||] ~tick:false
        (Relation.rows child_rel)
      @@ fun set -> rowwise mode (Linkeval.decide set) ?sel rel out
  | Plan.Push_down ->
      (* §4.2.4: chain the reduced child by its correlation key once;
         probe per outer tuple *)
      let pairs = Option.get b.A.equi_correlation in
      site_output mode rel sel
        ~sorted_prefix:(min sorted_prefix sp_after_select) k
      @@ fun out ->
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
      @@ fun groups -> rowwise mode (Linkeval.decide groups) ?sel rel out
  | Plan.Semijoin ->
      (* §4.2.5: σ_{AθSOME{B}}(υ(R ⟕_C S)) = R ⋉_{C ∧ AθB} S, which
         keeps the outer frame's rows that have a match, in order *)
      site_output mode rel sel ~sorted_prefix k @@ fun out ->
      Frame.with_block_input b @@ fun child_rel csel ->
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
      J.with_matches ~on ?left_sel:sel ?sel:csel rel child_rel @@ fun m ->
      let kept = ref 0 in
      for i = 0 to frame_count rel sel - 1 do
        if m.J.len.(i) > 0 then begin
          out.(!kept) <- base_pos sel i;
          incr kept
        end
      done;
      st.join_seconds <- st.join_seconds +. (now () -. t0);
      !kept
  | Plan.Bottom_up nest ->
      (* §4.2.3: reduce the subquery standalone, then one outer join
         and one nest+selection at this level *)
      join_nest_select st nest ~mode ~sorted_prefix ~sp_after_select
        ~standalone:true ?sel rel n k
  | Plan.Top_down nest ->
      (* Algorithm 1, general top-down case *)
      join_nest_select st nest ~mode ~sorted_prefix ~sp_after_select
        ~standalone:false ?sel rel n k

and join_nest_select :
    'a. stats -> Plan.nest -> mode:mode -> sorted_prefix:int ->
    sp_after_select:int -> standalone:bool -> ?sel:int array * int ->
    Relation.t -> Plan.node -> 'a frame_k -> 'a =
 fun st nest ~mode ~sorted_prefix ~sp_after_select ~standalone ?sel rel n k ->
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
  let feeds_grandchildren = (not standalone) && n.Plan.sub <> [] in
  let sorted = sorted_prefix >= key_arity in
  if (not feeds_grandchildren) && nest_pipelined nest ~sorted then begin
    (* the child frame — a one-table child block through its filter's
       selection vector, or a standalone reduction's output — is probed
       as it is handed on, and so is the outer frame *)
    site_output mode rel sel ~sorted_prefix:sp_after_select k @@ fun out ->
    with_reduced st n @@ fun child_rel csel ->
    let concat, on = concat_on child_rel in
    let t0 = now () in
    J.with_matches ~on ?left_sel:sel ?sel:csel rel child_rel @@ fun m ->
    st.join_seconds <- st.join_seconds +. (now () -. t0);
    (* the logical wide cardinality: one row per match, one padded row
       per unmatched outer row *)
    let wide_rows = ref 0 in
    for i = 0 to frame_count rel sel - 1 do
      wide_rows := !wide_rows + max 1 m.J.len.(i)
    done;
    let wide_rows = !wide_rows in
    record_intermediate st wide_rows;
    let lk =
      Linkeval.compile ~key_schema ~wide_schema:concat ~with_marker:true c
    in
    let kept =
      Nra_storage.Governor.with_charged ~rows:wide_rows
        ~width:(Schema.arity concat) (fun () ->
          fused_nest_select st ~key_schema ~lk ~mode ~sorted ?osel:sel ~out
            rel child_rel m)
    in
    st.fused_sites <- st.fused_sites + 1;
    kept
  end
  else begin
    let child_rel =
      if standalone then with_reduced st n gathered
      else Frame.block_relation b
    in
    let rel = gathered rel sel in
    let _, on = concat_on child_rel in
    let t0 = now () in
    let wide = J.join J.Left_outer ~on rel child_rel in
    st.join_seconds <- st.join_seconds +. (now () -. t0);
    record_intermediate st (Relation.cardinality wide);
    let nest_over wide wsel wide_sorted_prefix =
      let lk =
        Linkeval.compile ~key_schema ~wide_schema:(Relation.schema wide)
          ~with_marker:true c
      in
      (* the wide join product stays live while it is nested — charge
         it for that extent so the governor's high-water mark reflects
         both *)
      Nra_storage.Governor.with_charged
        ~rows:(frame_count wide wsel)
        ~width:(Schema.arity (Relation.schema wide))
        (fun () ->
          nest_select nest st ~key_schema ~lk ~mode
            ~sorted:(wide_sorted_prefix >= key_arity)
            ?sel:wsel wide)
    in
    let rel' =
      if standalone then nest_over wide None sorted_prefix
      else process st (wide, sorted_prefix) b n.Plan.sub nest_over
    in
    k rel' None sp_after_select
  end

(* ---------- entry points ---------- *)

(* The root frame as the root block's input ({!Frame.with_block_input})
   under the plan's sites, handed to [k] with the cost counters. *)
let with_where ?(options = optimized) ?directives (t : A.t) k =
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
  Frame.with_block_input t.A.root @@ fun rel sel ->
  process st ?sel (rel, 0) t.A.root plan.Plan.roots (fun rel sel _ ->
      k rel sel st)

let run_where ?options ?directives _cat t =
  with_where ?options ?directives t (fun rel sel st -> (gathered rel sel, st))

let run ?options ?directives _cat (t : A.t) =
  with_where ?options ?directives t (fun rel sel _ ->
      Post.apply ?sel t.A.output rel)

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
