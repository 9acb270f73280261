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

(* A frame is a base plus an optional selection [(sel, count)]: frame
   row [i] is base row [sel.(i)], for [i < count].  A base is stored
   rows, or the wide relation of a pipelined top-down site whose child
   block has children of its own, kept as position pairs: wide row [j]
   is the outer base's row [pos.(2j)] followed by the child block's row
   [pos.(2j + 1)], or by NULLs where that is -1 (an unmatched outer
   row, or one a σ̄ site below padded).  The outer base of a pair frame
   may itself be one, so a query keeps one position vector per block on
   the path, and no wide row is built.

   A one-table block's filter ({!Frame.with_block_input}), every σ site
   and every fused or pair site hand their frame on as positions in a
   buffer borrowed from {!Scratch} that lives until the frame's consumer
   ends.  A consumer that needs stored rows (a materialized site's outer
   join, a σ̄ site's padded rows over a stored base, [run_where]'s
   caller) gathers them once; one that reads a pair frame row by row
   loads each row into a buffer of its own. *)
type frame = Stored of Relation.t | Pairs of pairs

and pairs = {
  schema : Schema.t;  (** the outer frame's columns, then the child's *)
  outer : frame;
  pos : int array;  (** a borrowed buffer, two entries per wide row *)
  inner : Row.t array;  (** the child block's rows *)
  count : int;  (** the wide rows *)
  split : int;  (** the outer frame's arity *)
  nulls : Row.t;  (** the child block's NULL row *)
}

let frame_schema = function
  | Stored r -> Relation.schema r
  | Pairs p -> p.schema

let frame_count fr sel =
  match (sel, fr) with
  | Some (_, count), _ -> count
  | None, Stored r -> Relation.cardinality r
  | None, Pairs p -> p.count

let base_pos sel i =
  match sel with None -> i | Some (s, _) -> Array.unsafe_get s i

(* the rows of a stored base: only positional sites read a pair frame *)
let stored = function
  | Stored r -> r
  | Pairs _ -> invalid_arg "Nra: a pair frame read as stored rows"

let gathered rel = function
  | None -> rel
  | Some (sel, count) -> Relation.gather rel sel count

let inner_row p j =
  let q = p.pos.((2 * j) + 1) in
  if q < 0 then p.nulls else p.inner.(q)

(* write base row [j] into [buf] from column [at] *)
let rec load fr j buf at =
  match fr with
  | Stored r ->
      let row = (Relation.rows r).(j) in
      Array.blit row 0 buf at (Array.length row)
  | Pairs p ->
      load p.outer p.pos.(2 * j) buf at;
      Array.blit (inner_row p j) 0 buf (at + p.split) (Array.length p.nulls)

(* A reader of base rows: a stored row as it is, a wide row loaded into
   the reader's own buffer, valid until its next call. *)
let reader = function
  | Stored r ->
      let rows = Relation.rows r in
      fun j -> rows.(j)
  | Pairs p as fr ->
      let buf = Row.nulls (Schema.arity p.schema) in
      fun j ->
        load fr j buf 0;
        buf

(* the frame as a probe side: stored rows are shared by every probing
   domain, and each domain loads a pair frame's rows into a reader of
   its own *)
let source fr sel : J.source =
  let count = frame_count fr sel and arity = Schema.arity (frame_schema fr) in
  match fr with
  | Stored r ->
      let rows = Relation.rows r in
      let get i = rows.(base_pos sel i) in
      { J.count; arity; reader = (fun () -> get) }
  | Pairs _ ->
      let reader () =
        let row = reader fr in
        fun i -> row (base_pos sel i)
      in
      { J.count; arity; reader }

(* [Row.compare] of two base rows.  A concatenation compares as its
   parts do, in order, so a wide row is compared part by part, in
   place. *)
let rec compare_rows fr a b =
  match fr with
  | Stored r ->
      let rows = Relation.rows r in
      Row.compare rows.(a) rows.(b)
  | Pairs p ->
      let c = compare_rows p.outer p.pos.(2 * a) p.pos.(2 * b) in
      if c <> 0 then c else Row.compare (inner_row p a) (inner_row p b)

(* ---------- nest + linking selection ---------- *)

type mode = G.mode = Discard | Pad of int array

(* A site that decides its outer frame row by row, or group by group,
   writes its output into [out] as it goes: base position [p] keeps
   base row [p], and under σ̄, [-p - 1] keeps it padded. *)
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

(* The output frame of such a site over [fr] through [sel].  [fill out]
   decides the frame and returns how many entries it [record]ed.  The
   buffer is borrowed before the site's own scopes (its child's input,
   the probe's vectors), which end before [k] runs.  Under σ it is the
   next frame's selection over the same base and lives until [k] ends.
   Under σ̄ over stored rows the rows are built (a padded row is new)
   and the buffer is returned first.  Over a pair frame the padded block
   is the frame's child block, so a padded row's child position goes to
   -1, in place: a frame is read by the site it is handed to and by no
   one after it.  The selection is then the same as under σ. *)
let site_output mode fr sel ~sorted_prefix k fill =
  let n = frame_count fr sel in
  match (mode, fr) with
  | Discard, _ ->
      Scratch.with_ints n @@ fun out ->
      let kept = fill out in
      k fr (Some (out, kept)) sorted_prefix
  | Pad pad, Stored rel ->
      let rows = Relation.rows rel in
      let rel' =
        Scratch.with_ints n @@ fun out ->
        let kept = fill out in
        Relation.make (Relation.schema rel)
          (Array.init kept (fun j ->
               let p = out.(j) in
               if p >= 0 then rows.(p) else G.padded pad rows.(-p - 1)))
      in
      k (Stored rel') None sorted_prefix
  | Pad pad, Pairs p ->
      assert (Array.length pad = Array.length p.nulls);
      Scratch.with_ints n @@ fun out ->
      let kept = fill out in
      for j = 0 to kept - 1 do
        let e = out.(j) in
        if e < 0 then begin
          p.pos.((2 * (-e - 1)) + 1) <- -1;
          out.(j) <- -e - 1
        end
      done;
      k fr (Some (out, kept)) sorted_prefix

(* [nest_select] is the materialized υ followed by the linking
   selection over a stored wide frame ([wide] through [sel]), whose key
   attributes are its first [key_arity] columns: two passes over a
   staging of the keys and the keep columns.  nra-original runs it at
   every site, and a pipelined site runs it when a materialized nest
   below it hands on key rows; every other pipelined site groups
   without a wide row in one run scan ([nest_runs]), which produces
   exactly the groups (and group order) the materialized nest would.
   The output is key rows, key-sorted, and each group's verdict is one
   pass of the site's [Link_pred] fold. *)
let nest_select st ~key_schema ~(lk : Linkeval.t) ~mode ?sel wide =
  let t0 = now () in
  let key_arity = Schema.arity key_schema in
  let prefix =
    List.init key_arity (fun i -> (Expr.Col i, Schema.col key_schema i))
  in
  let staging = Nra_algebra.Basic.project_exprs ?sel (prefix @ lk.keep) wide in
  (* the pre-nest staging is governed: charged to the memory ledger and
     routed through a spill partition when it would not fit the frame
     budget (byte-identical either way) *)
  let result =
    Nra_storage.Governor.with_staged
      ~rows:(Relation.cardinality staging)
      ~width:(key_arity + List.length lk.keep)
    @@ fun () ->
    G.select mode lk.pred ~marker:lk.marker
      (G.nest_sort
         ~by:(Array.init key_arity Fun.id)
         ~keep:(Array.init (List.length lk.keep) (fun i -> key_arity + i))
         staging)
  in
  st.nest_select_seconds <- st.nest_select_seconds +. (now () -. t0);
  result

(* What a pipelined site's group scan runs over, through a selection:
   a leaf site's outer frame rows, each with its run of matches among
   the child rows ([Join.with_matches]' offset vectors), or a pair
   site's wide rows, one element each. *)
type members = Matches of J.matches * Row.t array | Wide of pairs

(* member [i]'s outer base row *)
let member_outer members sel i =
  match members with
  | Matches _ -> base_pos sel i
  | Wide p -> p.pos.(2 * base_pos sel i)

(* step member [i]'s elements, child rows or the NULL row, into
   [step o] *)
let step_member members sel ~nulls i o step =
  match members with
  | Matches (m, crows) ->
      if m.J.len.(i) = 0 then step o nulls
      else
        for q = m.J.off.(i) to m.J.off.(i) + m.J.len.(i) - 1 do
          step o crows.(m.J.pos.(q))
        done
  | Wide p -> step o (inner_row p (base_pos sel i))

(* Are the outer rows of members [i - 1] ... [n - 1] in [Row.compare]
   order?  Then a stable sort of the members is the identity. *)
let rec in_key_order outer members sel n i =
  i >= n
  || compare_rows outer
       (member_outer members sel (i - 1))
       (member_outer members sel i)
     <= 0
     && in_key_order outer members sel n (i + 1)

(* The nest and linking selection of a pipelined site, without a wide
   row: the fused probe–nest–select of a leaf site, and the nest of a
   site whose wide frame is kept as position pairs.  The group scan
   runs over the [n] [members] through [sel]: a leaf site's outer frame
   rows, each with its run of matches or the NULL element, or a pair
   site's wide rows, one element each, its child row or the NULL row.
   Each member belongs to one row of the [outer] base.  The members
   are stably sorted by their outer rows, compared in place, unless
   they are already in key order; a run of equal outer rows is one
   group, whose verdict is one pass of the site's [Link_pred] fold and
   is [record]ed into [out] under its first member's outer base
   position.  Only the members' positions are
   sorted, and neither the wide product, a staging copy, nor an element
   row is built.

   Byte-identical to joining, staging, stably sorting the staging on
   the outer columns and scanning runs: the staging row of outer row
   [i]'s [k]-th match sits at wide position (i, k), so the stable sort
   orders rows by outer value, then by [i], then by [k].  A stable sort
   of outer positions followed by a scan that merges runs of equal outer
   rows (σ̄ padding can make distinct outer rows equal) and steps each
   row's matches in build order visits exactly that sequence, and so
   does a stable sort of the wide frame's rows by their outer rows.  An
   unmatched outer row contributes the element the NULL-padded wide row
   would have.  The linked value and the marker are read in place from
   the child row through keep expressions remapped into the child
   frame; only one that reads an outer column evaluates on the
   concatenated row. *)
let nest_runs st ~(lk : Linkeval.t) ~mode ~sorted ~out ~nulls outer members
    ~sel ~n =
  let t0 = now () in
  let key_arity = Schema.arity (frame_schema outer) in
  let right_arity = Array.length nulls in
  (* a keep expression that reads an outer column evaluates on one
     reused wide row: the outer row is written into it once per outer
     row and each element once, however many expressions read them *)
  let wide = Array.make (key_arity + right_arity) Value.Null in
  let bound_l = ref (-1) and bound_r = ref [||] in
  let widen o rrow =
    if o <> !bound_l then begin
      load outer o wide 0;
      bound_l := o
    end;
    if rrow != !bound_r then begin
      Array.blit rrow 0 wide key_arity right_arity;
      bound_r := rrow
    end;
    wide
  in
  let keep pos =
    let s = fst (List.nth lk.keep pos) in
    if List.exists (fun i -> i < key_arity) (Expr.scalar_cols s) then
      fun o rrow -> Expr.eval_scalar (widen o rrow) s
    else
      match Expr.shift_scalar (-key_arity) s with
      | Expr.Col j -> fun _ rrow -> rrow.(j)
      | s -> fun _ rrow -> Expr.eval_scalar rrow s
  in
  let linked =
    match lk.linked with Some p -> keep p | None -> fun _ _ -> Value.Null
  in
  let padding =
    match lk.marker with
    | Some p ->
        let m = keep p in
        fun o rrow -> Value.is_null (m o rrow)
    | None -> fun _ _ -> false
  in
  let f = LP.fold lk.pred in
  let step_one o rrow =
    if not (padding o rrow || LP.decided f) then LP.step f (linked o rrow)
  in
  let pos =
    if sorted || in_key_order outer members sel n 1 then Fun.id
    else begin
      let order = Array.init n Fun.id in
      Array.stable_sort
        (fun i j ->
          compare_rows outer
            (member_outer members sel i)
            (member_outer members sel j))
        order;
      Array.get order
    end
  in
  let key_row = reader outer in
  let kept = ref 0 in
  let k = ref 0 in
  while !k < n do
    Nra_guard.Guard.tick ();
    let first = member_outer members sel (pos !k) in
    LP.start f ~outer:(key_row first);
    while
      !k < n && compare_rows outer first (member_outer members sel (pos !k)) = 0
    do
      let i = pos !k in
      step_member members sel ~nulls i (member_outer members sel i) step_one;
      incr k
    done;
    record mode out kept first (LP.finish f)
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
let rowwise mode decide ?sel fr out =
  let row = reader fr in
  let kept = ref 0 in
  for i = 0 to frame_count fr sel - 1 do
    Nra_guard.Guard.tick ();
    let p = base_pos sel i in
    record mode out kept p (decide (row p))
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

(* where a site hands its output frame: base, selection, and how many
   leading columns are known sorted *)
type 'a frame_k = frame -> (int array * int) option -> int -> 'a

(* Does a site hand on positions over the frame it reads, whatever its
   runtime order, so that it can run over a pair frame?  A materialized
   nest hands on key rows, and so does a pipelined top-down site with
   such a nest below it. *)
let rec positional (n : Plan.node) =
  match n.Plan.impl with
  | Plan.Shared_set | Plan.Push_down | Plan.Semijoin -> true
  | Plan.Bottom_up nest -> nest.Plan.pipelined
  | Plan.Top_down nest ->
      nest.Plan.pipelined && List.for_all positional n.Plan.sub

(* the wide schema of a site over a frame of [key_schema] and its
   child's relation, and the site's join predicate over it.
   Uncorrelated at this level (correlated deeper down) is a genuine
   Cartesian product: [on] is then TRUE. *)
let concat_on key_schema (b : A.block) child_rel =
  let concat = Schema.append key_schema (Relation.schema child_rel) in
  (concat, Frame.to_pred concat b.A.correlated)

(* The probe of a pipelined site: the child frame — a one-table child
   block through its filter's selection vector, or a standalone
   reduction's output, as [child] hands it — is probed as it is handed
   on, and so is the outer frame [fr] through [sel], stored or pairs.
   [f] gets the child's relation, the wide schema, the match vectors,
   the logical wide cardinality (one row per match and one padded row
   per unmatched outer row), the site's compiled link and the child's
   NULL row. *)
let probe_site st (c : A.child) fr sel ~child f =
  let key_schema = frame_schema fr in
  child @@ fun child_rel csel ->
  let concat, on = concat_on key_schema c.A.block child_rel in
  let t0 = now () in
  J.with_matches_of ~on ?sel:csel (source fr sel) child_rel @@ fun m ->
  st.join_seconds <- st.join_seconds +. (now () -. t0);
  let wide_rows = ref 0 in
  for i = 0 to frame_count fr sel - 1 do
    wide_rows := !wide_rows + max 1 m.J.len.(i)
  done;
  record_intermediate st !wide_rows;
  let lk =
    Linkeval.compile ~key_schema ~wide_schema:concat ~with_marker:true c
  in
  let nulls = Row.nulls (Schema.arity (Relation.schema child_rel)) in
  let kept = f child_rel concat m !wide_rows lk nulls in
  st.fused_sites <- st.fused_sites + 1;
  kept

(* The block's sites, in order, over the frame [fr] through [?sel]
   whose first [sorted_prefix] columns are known sorted; [k] receives
   the last site's output frame. *)
let rec process :
    'a. stats -> ?sel:int array * int -> frame * int -> A.block ->
    Plan.node list -> 'a frame_k -> 'a =
 fun st ?sel (fr, sorted_prefix) p nodes k ->
  match nodes with
  | [] -> k fr sel sorted_prefix
  | n :: rest ->
      apply_child st ~parent:p ?sel (fr, sorted_prefix) n
      @@ fun fr sel sorted_prefix ->
      process st ?sel (fr, sorted_prefix) p rest k

(* a child reduced standalone — its block's input
   ({!Frame.with_block_input}) under the child's own sites — handed to
   [f] as a stored frame *)
and with_reduced :
    'a. stats -> Plan.node ->
    (Relation.t -> (int array * int) option -> 'a) -> 'a =
 fun st n f ->
  let b = n.Plan.child.A.block in
  Frame.with_block_input b @@ fun rel sel ->
  process st ?sel (Stored rel, 0) b n.Plan.sub (fun fr sel _ ->
      f (stored fr) sel)

and apply_child :
    'a. stats -> parent:A.block -> ?sel:int array * int ->
    frame * int -> Plan.node -> 'a frame_k -> 'a =
 fun st ~parent ?sel (fr, sorted_prefix) n k ->
  let c = n.Plan.child in
  let b = c.A.block in
  let key_schema = frame_schema fr in
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
      site_output mode fr sel
        ~sorted_prefix:(min sorted_prefix sp_after_select) k
      @@ fun out ->
      with_reduced st n @@ fun child_rel csel ->
      let lk =
        Linkeval.compile ~key_schema ~wide_schema:(Relation.schema child_rel)
          ~with_marker:false c
      in
      Linkeval.with_group ?sel:csel lk ~keys:[||] ~probe:[||] ~tick:false
        (Relation.rows child_rel)
      @@ fun set -> rowwise mode (Linkeval.decide set) ?sel fr out
  | Plan.Push_down ->
      (* §4.2.4: chain the reduced child by its correlation key once;
         probe per outer tuple *)
      let pairs = Option.get b.A.equi_correlation in
      site_output mode fr sel
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
      @@ fun groups -> rowwise mode (Linkeval.decide groups) ?sel fr out
  | Plan.Semijoin ->
      (* §4.2.5: σ_{AθSOME{B}}(υ(R ⟕_C S)) = R ⋉_{C ∧ AθB} S, which
         keeps the outer frame's rows that have a match, in order *)
      site_output mode fr sel ~sorted_prefix k @@ fun out ->
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
      J.with_matches_of ~on ?sel:csel (source fr sel) child_rel @@ fun m ->
      let kept = ref 0 in
      for i = 0 to frame_count fr sel - 1 do
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
        ~standalone:true ?sel fr n k
  | Plan.Top_down nest ->
      (* Algorithm 1, general top-down case *)
      join_nest_select st nest ~mode ~sorted_prefix ~sp_after_select
        ~standalone:false ?sel fr n k

and join_nest_select :
    'a. stats -> Plan.nest -> mode:mode -> sorted_prefix:int ->
    sp_after_select:int -> standalone:bool -> ?sel:int array * int ->
    frame -> Plan.node -> 'a frame_k -> 'a =
 fun st nest ~mode ~sorted_prefix ~sp_after_select ~standalone ?sel fr n k ->
  let c = n.Plan.child in
  let b = c.A.block in
  let key_schema = frame_schema fr in
  let key_arity = Schema.arity key_schema in
  let sorted = sorted_prefix >= key_arity in
  if
    nest.Plan.pipelined
    && (standalone || List.for_all positional n.Plan.sub)
  then
    site_output mode fr sel ~sorted_prefix:sp_after_select k @@ fun out ->
    if standalone || n.Plan.sub = [] then
      (* the fused probe–nest–select: group the match ranges *)
      probe_site st c fr sel ~child:(with_reduced st n)
      @@ fun child_rel concat m wide_rows lk nulls ->
      let crows = Relation.rows child_rel in
      Nra_storage.Governor.with_charged ~rows:wide_rows
        ~width:(Schema.arity concat) (fun () ->
          nest_runs st ~lk ~mode ~sorted ~out ~nulls fr
            (Matches (m, crows))
            ~sel ~n:(frame_count fr sel))
    else begin
      (* the wide frame as position pairs, in outer frame order and each
         outer row's matches in build order, as the outer join emits
         its rows; the probe's vectors and the child's selection are
         returned before the child's sites run over it, and this site's
         nest groups what they hand back *)
      let wide, lk =
        probe_site st c fr sel ~child:(Frame.with_block_input b)
        @@ fun child_rel concat m wide_rows lk nulls ->
        let pos = Scratch.borrow (2 * wide_rows) in
        let w = ref 0 in
        let pair o q =
          pos.(!w) <- o;
          pos.(!w + 1) <- q;
          w := !w + 2
        in
        for i = 0 to frame_count fr sel - 1 do
          let o = base_pos sel i and len = m.J.len.(i) in
          if len = 0 then pair o (-1)
          else
            for q = m.J.off.(i) to m.J.off.(i) + len - 1 do
              pair o m.J.pos.(q)
            done
        done;
        ( {
            schema = concat;
            outer = fr;
            pos;
            inner = Relation.rows child_rel;
            count = wide_rows;
            split = key_arity;
            nulls;
          },
          lk )
      in
      Fun.protect ~finally:(fun () -> Scratch.release wide.pos) @@ fun () ->
      process st (Pairs wide, sorted_prefix) b n.Plan.sub
      @@ fun fr' wsel wide_sorted_prefix ->
      (* positional sites hand on positions over this very frame *)
      assert (match fr' with Pairs p -> p == wide | Stored _ -> false);
      let count = frame_count fr' wsel in
      Nra_storage.Governor.with_charged ~rows:count
        ~width:(Schema.arity wide.schema) (fun () ->
          nest_runs st ~lk ~mode
            ~sorted:(wide_sorted_prefix >= key_arity)
            ~out ~nulls:wide.nulls fr (Wide wide) ~sel:wsel ~n:count)
    end
  else begin
    let rel = gathered (stored fr) sel in
    let child_rel =
      if standalone then with_reduced st n gathered
      else Frame.block_relation b
    in
    let _, on = concat_on key_schema b child_rel in
    let t0 = now () in
    let wide = J.join J.Left_outer ~on rel child_rel in
    st.join_seconds <- st.join_seconds +. (now () -. t0);
    record_intermediate st (Relation.cardinality wide);
    let nest_over wide wsel _ =
      let wide = stored wide in
      let lk =
        Linkeval.compile ~key_schema ~wide_schema:(Relation.schema wide)
          ~with_marker:true c
      in
      (* the wide join product stays live while it is nested — charge
         it for that extent so the governor's high-water mark reflects
         both *)
      Nra_storage.Governor.with_charged
        ~rows:(frame_count (Stored wide) wsel)
        ~width:(Schema.arity (Relation.schema wide))
        (fun () -> nest_select st ~key_schema ~lk ~mode ?sel:wsel wide)
    in
    let rel' =
      if standalone then nest_over (Stored wide) None sorted_prefix
      else process st (Stored wide, sorted_prefix) b n.Plan.sub nest_over
    in
    k (Stored rel') None sp_after_select
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
  process st ?sel (Stored rel, 0) t.A.root plan.Plan.roots (fun fr sel _ ->
      k (stored fr) sel st)

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
