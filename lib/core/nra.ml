module Value = Nra_relational.Value
module Three_valued = Nra_relational.Three_valued
module Ttype = Nra_relational.Ttype
module Schema = Nra_relational.Schema
module Row = Nra_relational.Row
module Relation = Nra_relational.Relation
module Expr = Nra_relational.Expr
module Batch = Nra_relational.Batch
module Scratch = Nra_relational.Scratch
module Keyed = Nra_relational.Keyed

module Table = Nra_storage.Table
module Catalog = Nra_storage.Catalog
module Hash_index = Nra_storage.Hash_index
module Sorted_index = Nra_storage.Sorted_index
module Fault = Nra_storage.Fault
module Iosim = Nra_storage.Iosim
module Bufpool = Nra_storage.Bufpool
module Governor = Nra_storage.Governor
module Wal = Nra_storage.Wal
module Guard = Nra_guard.Guard
module Pool = Nra_pool.Pool

module Algebra = struct
  module Basic = Nra_algebra.Basic
  module Join = Nra_algebra.Join
  module Setops = Nra_algebra.Setops
  module Aggregate = Nra_algebra.Aggregate
  module Sort = Nra_algebra.Sort
end

module Nested = struct
  module Grouped = Nra_nested.Grouped
  module Link_pred = Nra_nested.Link_pred
end

module Sql = struct
  module Ast = Nra_sql.Ast
  module Lexer = Nra_sql.Lexer
  module Parser = Nra_sql.Parser
end

module Planner = struct
  module Resolved = Nra_planner.Resolved
  module Analyze = Nra_planner.Analyze
end

module Exec = struct
  module Frame = Nra_exec.Frame
  module Post = Nra_exec.Post
  module Naive = Nra_exec.Naive
  module Classical = Nra_exec.Classical
  module Magic = Nra_exec.Magic
  module Linkeval = Nra_exec.Linkeval
  module Plan = Nra_exec.Plan
  module Nra_exec = Nra_exec.Nra
end

module Tpch = struct
  module Prng = Nra_tpch.Prng
  module Gen = Nra_tpch.Gen
  module Queries = Nra_tpch.Queries
end

module Stats = struct
  module Histogram = Nra_storage.Histogram
  module Col_stats = Nra_storage.Col_stats
  module Table_stats = Nra_storage.Table_stats
  module Cardinality = Nra_stats.Cardinality
  module Cost = Nra_stats.Cost
end

module Opt = struct
  module Config = Nra_opt.Config
  module Rewrite = Nra_opt.Rewrite
end

(* ---------- the error taxonomy ---------- *)

module Exec_error = struct
  type t =
    | Budget_exceeded of Guard.resource
    | Cancelled
    | Io_error of string
    | Parse of { message : string; offset : int option; excerpt : string }
    | Invalid of string
    | Unsupported of string
    | Runtime of string
    | Rejected of string
    | Queue_timeout of { waited_ms : float }

  let to_string = function
    | Budget_exceeded r ->
        Printf.sprintf "query killed: budget exceeded (%s)"
          (Guard.resource_to_string r)
    | Cancelled -> "query killed: cancelled"
    | Io_error m -> Printf.sprintf "I/O error: %s" m
    | Parse { message; offset; excerpt } ->
        "parse error: "
        ^ Nra_sql.Parser.render_error
            { Nra_sql.Parser.message; offset; excerpt }
    | Invalid m | Unsupported m | Runtime m -> m
    | Rejected m -> Printf.sprintf "statement rejected: %s" m
    | Queue_timeout { waited_ms } ->
        Printf.sprintf
          "statement rejected: timed out in the admission queue after \
           %.1f ms" waited_ms
end

(* Convert the engine's runtime exceptions into the taxonomy.  Kills are
   counted here — exactly once, where they surface as a user-visible
   error; Auto's degraded attempts are caught earlier (in [run_priced])
   and counted as fallbacks instead. *)
let trap f =
  match f () with
  | v -> v
  | exception Guard.Killed k ->
      Guard.note_kill k;
      Error
        (match k with
        | Guard.Budget_exceeded r -> Exec_error.Budget_exceeded r
        | Guard.Cancelled -> Exec_error.Cancelled)
  | exception Fault.Io_fault m -> Error (Exec_error.Io_error m)
  | exception Nra_exec.Frame.Unsupported m ->
      Error (Exec_error.Unsupported ("unsupported by this strategy: " ^ m))
  | exception Nra_exec.Post.Unsupported m -> Error (Exec_error.Unsupported m)
  | exception Nra_planner.Analyze.Error m -> Error (Exec_error.Invalid m)
  | exception Invalid_argument m -> Error (Exec_error.Invalid m)
  | exception Failure m -> Error (Exec_error.Runtime m)

type strategy =
  | Naive
  | Classical
  | Magic
  | Nra_original
  | Nra_optimized
  | Nra_full
  | Hybrid
  | Auto

let strategies =
  [
    ("naive", Naive);
    ("classical", Classical);
    ("magic", Magic);
    ("nra-original", Nra_original);
    ("nra-optimized", Nra_optimized);
    ("nra-full", Nra_full);
    ("hybrid", Hybrid);
    ("auto", Auto);
  ]

let strategy_of_string s = List.assoc_opt (String.lowercase_ascii s) strategies

let strategy_to_string s =
  fst (List.find (fun (_, v) -> v = s) strategies)

(* the Section 6 dispatch: classical unnesting whenever it fully
   applies, the nested relational approach otherwise *)
let classical_fully_applies cat t =
  List.for_all
    (fun (_, s) -> s <> Nra_exec.Classical.Iterate)
    (Nra_exec.Classical.plan cat t)

let of_cost_strategy = function
  | Nra_stats.Cost.Naive -> Naive
  | Nra_stats.Cost.Classical -> Classical
  | Nra_stats.Cost.Magic -> Magic
  | Nra_stats.Cost.Nra_original -> Nra_original
  | Nra_stats.Cost.Nra_optimized -> Nra_optimized
  | Nra_stats.Cost.Nra_full -> Nra_full

(* ---------- the engine configuration ---------- *)

module Engine_config = Engine_config

(* The installed config.  Its statement-level fields (rules, Auto's
   guard) are read from here by statements that are not prepared with
   a config of their own; the engine-wide fields live in the modules
   that own them, and [config] reads them back from there. *)
let installed = ref Engine_config.default

let config () : Engine_config.t =
  let frames =
    match Bufpool.frames () with Some n -> Engine_config.Pages n | None -> Off
  in
  {
    !installed with
    domains = Pool.size ();
    parallel_threshold = Pool.parallel_threshold ();
    morsel = Pool.morsel ();
    frames;
    faults = Fault.config ();
    iosim = Iosim.config ();
  }

(* Only a part that differs from what is installed is set, so
   re-installing a config keeps the buffer pool's residency, the fault
   stream and the I/O cache (the pool's setter retires workers only on
   a new size). *)
let configure (c : Engine_config.t) =
  let now = config () and f = c.faults in
  Pool.configure ~size:c.domains ~threshold:c.parallel_threshold
    ~morsel:c.morsel;
  if c.iosim <> now.iosim then Iosim.set_config c.iosim;
  let frames = Engine_config.frame_count c in
  if frames <> Bufpool.frames () then Bufpool.set_frames frames;
  if f <> now.faults then
    Fault.configure ~seed:f.seed ~max_retries:f.max_retries
      ~backoff_ms:f.backoff_ms ~alloc_probability:f.alloc_probability
      f.probability;
  installed := c

let set_rewrite_rules rules = installed := { !installed with rules }

(* ---------- the algebraic rewrite pass (nra.opt) ---------- *)

(* which options an NRA-family strategy lifts its plan under *)
let nra_base_options = function
  | Nra_original -> Some Nra_exec.Nra.original
  | Nra_optimized -> Some Nra_exec.Nra.optimized
  | Nra_full | Hybrid -> Some Nra_exec.Nra.full
  | Naive | Classical | Magic | Auto -> None

(* What pricing a statement leaves for its execution, so that the plan
   priced is the plan run.  [estimates] is Auto's ranked list ([] when
   the statement was not priced for Auto, or Auto's pricing failed).
   [rewrites] holds one entry per NRA strategy priced: the rewriter's
   result on that strategy's lifted plan, [None] when rules are off or
   the rewriter raised (the lifted plan runs); an NRA-family strategy
   priced alone keeps only a rewrite that fired.  Hybrid's NRA arm runs
   nra-full's entry. *)
type priced = {
  estimates : Nra_stats.Cost.estimate list;
  rewrites : (strategy * Nra_opt.Rewrite.result option) list;
}

let unpriced = { estimates = []; rewrites = [] }

(* rewriting is advisory, so any estimation failure (e.g. an executor
   planner raising on an exotic shape) silently yields the unrewritten
   plan *)
let rewrite_in rules ctx plan =
  match Nra_opt.Rewrite.rewrite ~rules ctx plan with
  | r -> Some r
  | exception _ -> None

(* [Some r] only when rules are enabled AND the cost gate fired at
   least one edit *)
let rewrite_under rules cat t base =
  if rules = [] then None
  else
    match
      rewrite_in rules
        (Nra_opt.Rewrite.context (Nra_stats.Cardinality.make_env cat t))
        (Nra_exec.Plan.lift ~base t)
    with
    | Some r when r.Nra_opt.Rewrite.changed -> Some r
    | _ -> None

let rewrite_for cat t base = rewrite_under !installed.rules cat t base

(* Auto over strategies × rewritten plans, in one pricing context.
   Each NRA strategy's plan is lifted once and the rewriter starts from
   it; the strategy's estimate is the walk of the plan it runs (the
   rewrite, which is the lifted plan when no edit fired), already
   priced in the context by the search.  The three searches share the
   context, so a plan two of them reach is walked once. *)
let cost_strategies = Array.of_list Nra_stats.Cost.all

let price_in rules env =
  let module Cost = Nra_stats.Cost in
  let module Rw = Nra_opt.Rewrite in
  let t = Nra_stats.Cardinality.analysis env in
  let ctx = Rw.context env in
  let rewrites = ref [] in
  let estimate cs =
    match Cost.nra_base cs with
    | None -> Cost.estimate_in env cs
    | Some base ->
        let plan = Nra_exec.Plan.lift ~base t in
        let r = if rules <> [] then rewrite_in rules ctx plan else None in
        rewrites := (of_cost_strategy cs, r) :: !rewrites;
        let runs = match r with Some r -> r.Rw.dirs | None -> plan in
        Cost.estimate_in env ~walk:(Rw.walk ctx runs) cs
  in
  let es = Array.map estimate cost_strategies in
  Array.stable_sort Cost.compare es;
  { estimates = Array.to_list es; rewrites = List.rev !rewrites }

(* The one place a statement is priced, for the strategy it will run
   under: Auto every strategy and every NRA strategy's rewrite (its
   fallback's rewrite alone when that pricing fails), an NRA-family
   strategy its one rewrite (Hybrid nra-full's), the others nothing. *)
let rec price (cfg : Engine_config.t) strategy cat t =
  match strategy with
  | Auto -> (
      match price_in cfg.rules (Nra_stats.Cardinality.make_env cat t) with
      | { estimates = []; _ } | (exception _) -> price cfg Nra_optimized cat t
      | priced -> priced)
  | s -> (
      match nra_base_options s with
      | None -> unpriced
      | Some options ->
          let runs_as = if s = Hybrid then Nra_full else s in
          let r = rewrite_under cfg.rules cat t options in
          { unpriced with rewrites = [ (runs_as, r) ] })

let estimates_with_rewrites cat t = (price !installed Auto cat t).estimates

(* Budget-aware choice: when the caller runs under a guard, prefer the
   cheapest plan whose estimate FITS what is left of that budget over
   the globally cheapest one — a tight row allowance steers away from
   the NRA's wide intermediates even when they are I/O-cheaper.  With
   no active guard, [Guard.remaining ()] is unlimited and this is the
   plain cheapest. *)
let budget_pick es =
  let r = Guard.remaining () in
  Nra_stats.Cost.pick ~remaining_io_ms:r.Guard.sim_io_ms
    ~remaining_rows:r.Guard.max_rows es

(* ---------- the runner ---------- *)

(* Every NRA-family execution funnels through here and runs the rewrite
   priced for [s], or its lifted plan when none was kept. *)
let run_nra priced s options cat t =
  let directives =
    match List.assoc_opt s priced.rewrites with
    | Some (Some r) -> Some r.Nra_opt.Rewrite.dirs
    | Some None | None -> None
  in
  Nra_exec.Nra.run ~options ?directives cat t

(* A budget kill under Auto is evidence of a cost-model misestimate:
   the chosen plan was supposed to cost [cost_ms] and has already spent
   [overrun] times that.  Rather than failing the query, kill the
   attempt, roll the I/O ledger back, and rerun under the
   always-applicable default strategy. *)
let auto_attempt_ms (cfg : Engine_config.t) cost_ms =
  Float.max (Float.max 0.0 cfg.auto_floor_ms)
    (cost_ms *. Float.max 1.0 cfg.auto_overrun)

(* Run a statement [price] priced for [strategy].  Auto picks over its
   estimates, with the attempt/fallback protocol, and runs Nra_optimized
   when it has none; the pick and the fallback run the rewrites they
   were priced with. *)
let rec run_priced cfg priced strategy cat t =
  match strategy with
  | Naive -> Nra_exec.Naive.run cat t
  | Classical -> Nra_exec.Classical.run cat t
  | Magic -> Nra_exec.Magic.run cat t
  | Nra_original -> run_nra priced Nra_original Nra_exec.Nra.original cat t
  | Nra_optimized -> run_nra priced Nra_optimized Nra_exec.Nra.optimized cat t
  | Nra_full -> run_nra priced Nra_full Nra_exec.Nra.full cat t
  | Hybrid ->
      if classical_fully_applies cat t then Nra_exec.Classical.run cat t
      else run_nra priced Nra_full Nra_exec.Nra.full cat t
  | Auto -> (
      match priced.estimates with
      | [] -> run_priced cfg priced Nra_optimized cat t
      | es ->
          let best = budget_pick es in
          let pick = of_cost_strategy best.Nra_stats.Cost.strategy in
          if pick = Nra_optimized then
            (* the chosen plan IS the fallback: a derived budget would
               only kill a query that has nowhere left to degrade to *)
            run_priced cfg priced Nra_optimized cat t
          else
            let attempt =
              Guard.min_budget (Guard.remaining ())
                (Guard.budget
                   ~sim_io_ms:(auto_attempt_ms cfg best.Nra_stats.Cost.cost_ms)
                   ())
            in
            (* the attempt runs under a per-task I/O ledger instead of a
               global checkpoint: [uncharge] subtracts only the attempt's
               own charges, so concurrently scheduled statements can
               interleave freely — no no-yield critical section needed *)
            let led = Nra_storage.Iosim.push_ledger () in
            match
              Guard.with_budget attempt (fun () ->
                  run_priced cfg priced pick cat t)
            with
            | rel ->
                Nra_storage.Iosim.pop_ledger led;
                rel
            | exception Guard.Killed (Guard.Budget_exceeded _) ->
                Nra_storage.Iosim.pop_ledger led;
                (* un-charge the aborted attempt: the fallback redoes the
                   work, and double-charging would poison both the
                   client's budget and any [--time] report *)
                Nra_storage.Iosim.uncharge led;
                (* if the CLIENT's budget (not the derived one) is what
                   blew, degrading cannot help — re-raise for the facade *)
                Guard.recheck ();
                Guard.note_fallback ();
                run_priced cfg priced Nra_optimized cat t
            | exception e ->
                Nra_storage.Iosim.pop_ledger led;
                raise e)

let ( let* ) = Result.bind
module Ast = Nra_sql.Ast

let run_select ?ctes cfg strategy cat q =
  trap (fun () ->
      let t = Nra_planner.Analyze.analyze ?ctes cat q in
      Ok (run_priced cfg (price cfg strategy cat t) strategy cat t))

(* An ORDER BY / LIMIT written after the last component of a set
   operation applies to the combined result. *)
let strip_rightmost stmt =
  let rec go = function
    | Ast.Select q ->
        (Ast.Select { q with Ast.order_by = []; limit = None },
         q.Ast.order_by, q.Ast.limit)
    | Ast.Setop (op, l, r) ->
        let r', ob, lim = go r in
        (Ast.Setop (op, l, r'), ob, lim)
  in
  go stmt

let setop_sort_keys schema order_by =
  let resolve (e, dir) =
    let dir =
      match dir with
      | `Asc -> Nra_algebra.Sort.Asc
      | `Desc -> Nra_algebra.Sort.Desc
    in
    match e with
    | Ast.Col (None, name) -> (
        match Nra_relational.Schema.find_opt schema name with
        | Some pos -> Ok { Nra_algebra.Sort.pos; dir }
        | None ->
            Error
              (Exec_error.Invalid
                 (Printf.sprintf "unknown output column %s" name)))
    | Ast.Lit (Value.Int k)
      when k >= 1 && k <= Nra_relational.Schema.arity schema ->
        Ok { Nra_algebra.Sort.pos = k - 1; dir }
    | _ ->
        Error
          (Exec_error.Invalid
             "ORDER BY on a set operation must use output column names \
              or 1-based positions")
  in
  List.fold_left
    (fun acc key ->
      let* keys = acc in
      let* k = resolve key in
      Ok (keys @ [ k ]))
    (Ok []) order_by

let rec combine ?ctes cfg strategy cat = function
  | Ast.Select q -> run_select ?ctes cfg strategy cat q
  | Ast.Setop (op, l, r) ->
      let* lrel = combine ?ctes cfg strategy cat l in
      let* rrel = combine ?ctes cfg strategy cat r in
      if
        Nra_relational.Schema.arity (Relation.schema lrel)
        <> Nra_relational.Schema.arity (Relation.schema rrel)
      then
        Error
          (Exec_error.Invalid
             (Printf.sprintf
                "set operation over different arities (%d vs %d columns)"
                (Nra_relational.Schema.arity (Relation.schema lrel))
                (Nra_relational.Schema.arity (Relation.schema rrel))))
      else
        let f =
          match (op.Ast.op, op.Ast.all) with
          | `Union, false -> Nra_algebra.Setops.union
          | `Union, true -> Nra_algebra.Setops.union_all
          | `Intersect, false -> Nra_algebra.Setops.intersect
          | `Intersect, true -> Nra_algebra.Setops.intersect_all
          | `Except, false -> Nra_algebra.Setops.except
          | `Except, true -> Nra_algebra.Setops.except_all
        in
        Ok (f lrel rrel)

let run_statement ?ctes cfg strategy cat stmt =
  match stmt with
  | Ast.Select q -> run_select ?ctes cfg strategy cat q
  | Ast.Setop _ ->
      let body, order_by, limit = strip_rightmost stmt in
      let* rel = combine ?ctes cfg strategy cat body in
      let* rel =
        if order_by = [] then Ok rel
        else
          let* keys = setop_sort_keys (Relation.schema rel) order_by in
          Ok (Nra_algebra.Sort.sort keys rel)
      in
      Ok
        (match limit with
        | Some n -> Nra_algebra.Basic.limit n rel
        | None -> rel)

(* Common table expressions bind statement-local relations, as a [let]
   does in the nested relational calculus: each body runs, in order,
   with the CTEs before it in scope (not itself), and its rows become an
   unregistered table that Analyze resolves before the catalog, so a CTE
   may shadow a base table.  The synthetic __rowid key is the primary
   key Analyze's block marker needs.  The catalog and its log are never
   touched: a WITH is a read. *)
let run_with cfg strategy cat ctes stmt =
  trap @@ fun () ->
  let rec go scope = function
    | [] -> run_statement ~ctes:scope cfg strategy cat stmt
    | (name, cstmt) :: rest ->
        let* rel = run_statement ~ctes:scope cfg strategy cat cstmt in
        let cols =
          Nra_relational.Schema.column "__rowid" Ttype.Int
          :: (Array.to_list
                (Nra_relational.Schema.columns (Relation.schema rel))
             |> List.map (fun (c : Nra_relational.Schema.column) ->
                    { c with Nra_relational.Schema.table = "" }))
        in
        let rows =
          Array.mapi
            (fun i row -> Row.concat [| Value.Int i |] row)
            (Relation.rows rel)
        in
        let table = Table.create ~name ~key:[ "__rowid" ] cols rows in
        go ((name, table) :: scope) rest
  in
  go [] ctes

(* ---------- commands ---------- *)

type exec_result = Rows of Relation.t | Count of int | Done of string

let invalidf fmt = Format.kasprintf (fun m -> Error (Exec_error.Invalid m)) fmt

(* All DML below is atomic: matching rows are computed, and the rows a
   write introduces are validated (types, NOT NULL, key uniqueness; the
   kept rows passed when they entered) BEFORE [Catalog.update_rows]'s
   single commit point.  A budget kill, injected I/O fault, or type
   error anywhere in between surfaces as an [Error] with the table, its
   indexes, and the catalog generation untouched. *)

(* Every DML mutation runs through the catalog's write-ahead log:
   Begin, the op's delta (log-before-write), the mutation, Commit.
   [mutate] must be one of the catalog's atomic entry points — it
   either applies fully or raises having applied nothing
   ([Catalog.update_rows] validates before its single commit point) —
   so on an exception we know exactly whether undo is needed: only
   when [Wal.commit] itself was what failed.  Inline rollback
   preserves the pre-statement state; [Fault.Crash] (the
   kill-at-fault-point harness's power loss) bypasses all cleanup by
   design and escapes raw — [Wal.recover] repairs the catalog on
   restart. *)
let wal_mutate cat ~log ~mutate =
  let stmt = Wal.begin_stmt cat in
  let applied = ref false in
  try
    log stmt;
    mutate ();
    applied := true;
    Wal.commit stmt
  with
  | Fault.Crash _ as e -> raise e
  | e ->
      Wal.abort ~applied:!applied stmt;
      raise e

let do_create cat ~table ~columns ~key =
  trap (fun () ->
      if Catalog.mem cat table then
        invalidf "table %s already exists" table
      else begin
        let cols =
          List.map
            (fun (cd : Ast.column_def) ->
              Nra_relational.Schema.column ~not_null:cd.Ast.cd_not_null
                cd.Ast.cd_name cd.Ast.cd_type)
            columns
        in
        let t = Table.create ~name:table ~key cols [||] in
        wal_mutate cat
          ~log:(fun stmt -> Wal.log_create stmt t)
          ~mutate:(fun () -> Catalog.register cat t);
        Ok (Done (Printf.sprintf "table %s created" table))
      end)

let do_insert_rows cat table new_rows =
  trap (fun () ->
      match Catalog.table_opt cat table with
      | None -> invalidf "unknown table %s" table
      | Some t ->
          let arity =
            Nra_relational.Schema.arity (Table.schema t)
          in
          let bad =
            List.find_opt
              (fun r -> Array.length r <> arity)
              new_rows
          in
          (match bad with
          | Some r ->
              invalidf "insert into %s: %d values where %d columns expected"
                table (Array.length r) arity
          | None ->
              let before = Relation.rows (Table.relation t) in
              let added = Array.of_list new_rows in
              let at = Array.length before in
              let rows = Array.append before added in
              (* only the appended rows are new to the table *)
              let fresh = Array.init (Array.length added) (fun i -> at + i) in
              wal_mutate cat
                ~log:(fun stmt -> Wal.log_insert stmt ~table ~at added)
                ~mutate:(fun () -> Catalog.update_rows ~fresh cat table rows);
              Ok (Count (List.length new_rows))))

let do_delete cfg strategy cat table where =
  trap (fun () ->
      match Catalog.table_opt cat table with
      | None -> invalidf "unknown table %s" table
      | Some t -> (
          let probe =
            Ast.simple_query ~select:[ Ast.Star ]
              ~from:[ (table, None) ]
              ?where ()
          in
          match run_select cfg strategy cat probe with
          | Error m -> Error m
          | Ok matching ->
              (* mark the doomed rows by primary key, then split the
                 table into exact-size survivors and deleted rows *)
              let keys = Table.key_positions t in
              let before = Relation.rows (Table.relation t) in
              let n = Array.length before in
              let doomed = Bytes.make n '\000' in
              let d =
                Keyed.with_scratch ~nulls:`Group ~pos:keys
                  (Relation.rows matching)
                @@ fun matches ->
                let d = ref 0 in
                Array.iteri
                  (fun i r ->
                    if Keyed.first matches keys r >= 0 then begin
                      Bytes.unsafe_set doomed i '\001';
                      incr d
                    end)
                  before;
                !d
              in
              let survivors = Array.make (n - d) [||] in
              let positions = Array.make d 0 and deleted = Array.make d [||] in
              let s = ref 0 and k = ref 0 in
              Array.iteri
                (fun i r ->
                  if Bytes.unsafe_get doomed i = '\000' then begin
                    survivors.(!s) <- r;
                    incr s
                  end
                  else begin
                    positions.(!k) <- i;
                    deleted.(!k) <- r;
                    incr k
                  end)
                before;
              wal_mutate cat
                ~log:(fun stmt ->
                  Wal.log_delete stmt ~table ~len:n ~positions deleted)
                ~mutate:(fun () ->
                  Catalog.update_rows ~fresh:[||] cat table survivors);
              Ok (Count d)))

let do_update cfg strategy cat table assigns where =
  trap (fun () ->
      match Catalog.table_opt cat table with
      | None -> invalidf "unknown table %s" table
      | Some t -> (
          let schema = Table.schema t in
          let positions =
            List.map
              (fun (c, _) ->
                match Nra_relational.Schema.find_opt schema c with
                | Some i -> i
                | None ->
                    invalid_arg
                      (Printf.sprintf "table %s has no column %s" table c))
              assigns
          in
          (* one query computes, per matching primary key, the new values
             of the assigned columns — so assignments see the pre-update
             row and the WHERE may use subqueries *)
          let select =
            List.map
              (fun k -> Ast.Sel_expr (Ast.Col (None, k), None))
              (Table.key_columns t)
            @ List.mapi
                (fun i (_, e) ->
                  Ast.Sel_expr (e, Some (Printf.sprintf "__set%d" i)))
                assigns
          in
          let probe =
            Ast.simple_query ~select ~from:[ (table, None) ] ?where ()
          in
          match run_select cfg strategy cat probe with
          | Error m -> Error m
          | Ok matching ->
              (* a matching row holds the key, then the new values *)
              let nkeys = List.length (Table.key_columns t) in
              let found = Relation.rows matching in
              let keys = Table.key_positions t in
              let before = Relation.rows (Table.relation t) in
              (* each found key names at most one row *)
              let m = Array.length found in
              let ids = Array.make m 0 in
              let olds = Array.make m [||] and news = Array.make m [||] in
              let changed = ref 0 in
              let rows =
                Keyed.with_scratch ~nulls:`Group
                  ~pos:(Array.init nkeys Fun.id) found
                @@ fun updates ->
                Array.mapi
                  (fun i row ->
                    let e = Keyed.first updates keys row in
                    if e < 0 then row
                    else begin
                      let row' = Array.copy row in
                      List.iteri
                        (fun i pos -> row'.(pos) <- found.(e).(nkeys + i))
                        positions;
                      ids.(!changed) <- i;
                      olds.(!changed) <- row;
                      news.(!changed) <- row';
                      incr changed;
                      row'
                    end)
                  before
              in
              let trim a = if !changed = m then a else Array.sub a 0 !changed in
              let fresh = trim ids in
              wal_mutate cat
                ~log:(fun stmt ->
                  Wal.log_update stmt ~table ~positions:fresh
                    ~before:(trim olds) ~after:(trim news))
                ~mutate:(fun () -> Catalog.update_rows ~fresh cat table rows);
              Ok (Count !changed)))

let run_command cfg strategy cat = function
  | Ast.Cmd_query stmt -> (
      match run_statement cfg strategy cat stmt with
      | Ok rel -> Ok (Rows rel)
      | Error e -> Error e)
  | Ast.Create_table { table; columns; key } ->
      do_create cat ~table ~columns ~key
  | Ast.Drop_table table ->
      trap (fun () ->
          match Catalog.table_opt cat table with
          | None -> invalidf "unknown table %s" table
          | Some t ->
              wal_mutate cat
                ~log:(fun stmt -> Wal.log_drop stmt t)
                ~mutate:(fun () -> Catalog.drop_table cat table);
              Ok (Done (Printf.sprintf "table %s dropped" table)))
  | Ast.Insert_values (table, rows) ->
      do_insert_rows cat table (List.map Array.of_list rows)
  | Ast.Insert_select (table, stmt) -> (
      match run_statement cfg strategy cat stmt with
      | Error e -> Error e
      | Ok rel ->
          do_insert_rows cat table (Array.to_list (Relation.rows rel)))
  | Ast.Delete (table, where) -> do_delete cfg strategy cat table where
  | Ast.With_query (ctes, stmt) -> (
      match run_with cfg strategy cat ctes stmt with
      | Ok rel -> Ok (Rows rel)
      | Error e -> Error e)
  | Ast.Update (table, assigns, where) ->
      do_update cfg strategy cat table assigns where
  | Ast.Analyze target ->
      trap (fun () ->
          match target with
          | Some name ->
              if Catalog.mem cat name then begin
                ignore (Catalog.analyze cat name);
                Ok (Done (Printf.sprintf "analyzed %s" name))
              end
              else invalidf "unknown table %s" name
          | None ->
              let tables = Catalog.tables cat in
              List.iter
                (fun t -> ignore (Catalog.analyze cat (Table.name t)))
                tables;
              Ok (Done (Printf.sprintf "analyzed %d table(s)"
                          (List.length tables))))

(* ---------- the public entry points ---------- *)

let parse_command sql =
  match Nra_sql.Parser.parse_command_located sql with
  | Ok cmd -> Ok cmd
  | Error { Nra_sql.Parser.message; offset; excerpt } ->
      Error (Exec_error.Parse { message; offset; excerpt })

let with_guard guard f =
  match guard with
  | None -> f ()
  | Some b -> Guard.with_budget b f

let run ?(strategy = Nra_optimized) ?guard cat sql =
  let* cmd = parse_command sql in
  with_guard guard (fun () -> run_command !installed strategy cat cmd)

(* ---------- statement footprints ---------- *)

(* Which tables a command reads and writes, by name — the serving
   layer's table-level locks are granted from this, so DML on disjoint
   tables can interleave under the scheduler while conflicting
   statements still serialize.  [All_tables] is the conservative
   answer for statements whose reach cannot be named up front
   (catalog-wide ANALYZE). *)
type footprint =
  | All_tables
  | Tables of { read : string list; write : string list }

let rec query_tables (q : Ast.query) =
  let own = List.map fst q.Ast.from in
  let conds = Option.to_list q.Ast.where @ Option.to_list q.Ast.having in
  own
  @ List.concat_map query_tables (List.concat_map Ast.subqueries conds)

let rec statement_tables = function
  | Ast.Select q -> query_tables q
  | Ast.Setop (_, l, r) -> statement_tables l @ statement_tables r

let cond_tables c =
  match c with
  | None -> []
  | Some c -> List.concat_map query_tables (Ast.subqueries c)

let dedup names = List.sort_uniq String.compare names

let command_footprint = function
  | Ast.Cmd_query stmt -> Tables { read = dedup (statement_tables stmt); write = [] }
  | Ast.Create_table { table; _ } -> Tables { read = []; write = [ table ] }
  | Ast.Drop_table table -> Tables { read = []; write = [ table ] }
  | Ast.Insert_values (table, _) -> Tables { read = []; write = [ table ] }
  | Ast.Insert_select (table, stmt) ->
      Tables { read = dedup (statement_tables stmt); write = [ table ] }
  | Ast.Delete (table, where) ->
      (* the probe query scans the target too; listing it under [write]
         already excludes concurrent readers *)
      Tables { read = dedup (cond_tables where); write = [ table ] }
  | Ast.Update (table, _, where) ->
      Tables { read = dedup (cond_tables where); write = [ table ] }
  | Ast.With_query (ctes, stmt) ->
      (* a read of base tables only: a name is a CTE where one is in
         scope, and a CTE body sees only the CTEs before it *)
      let base scope s =
        List.filter (fun n -> not (List.mem n scope)) (statement_tables s)
      in
      let scope, read =
        List.fold_left
          (fun (scope, read) (name, s) -> (name :: scope, base scope s @ read))
          ([], []) ctes
      in
      Tables { read = dedup (base scope stmt @ read); write = [] }
  | Ast.Analyze (Some table) -> Tables { read = [ table ]; write = [ table ] }
  | Ast.Analyze None -> All_tables

(* ---------- prepared statements ---------- *)

(* The compile-once-execute-many contract behind the nra.server plan
   cache: [prepare] pays for parse + analysis + [price] once;
   [run_prepared] replays only [run_priced].  Non-SELECT shapes (set
   operations, WITH, DML) keep their parsed command — still skipping
   the lexer/parser — and take the ordinary paths, which analyze and
   price per component. *)
type prepared = {
  p_cmd : Ast.command;
  p_config : Engine_config.t;
  p_strategy : strategy;
  p_analyzed : Nra_planner.Analyze.t option;
  p_priced : priced;  (* a plain SELECT only; [unpriced] otherwise *)
  p_footprint : footprint;
}

let prepared_strategy p = p.p_strategy
let prepared_estimates p = p.p_priced.estimates

let prepared_is_query p =
  match p.p_cmd with Ast.Cmd_query _ -> true | _ -> false

let prepare_command ~config ~strategy ~footprint cat cmd =
  let prepared p_analyzed p_priced =
    {
      p_cmd = cmd;
      p_config = config;
      p_strategy = strategy;
      p_analyzed;
      p_priced;
      p_footprint = footprint;
    }
  in
  match cmd with
  | Ast.Cmd_query (Ast.Select q) ->
      trap (fun () ->
          let t = Nra_planner.Analyze.analyze cat q in
          Ok (prepared (Some t) (price config strategy cat t)))
  | _ -> Ok (prepared None unpriced)

let prepare ?(config = !installed) ?(strategy = Nra_optimized) cat sql =
  let* cmd = parse_command sql in
  prepare_command ~config ~strategy ~footprint:(command_footprint cmd) cat cmd

let reprepare cat p =
  prepare_command ~config:p.p_config ~strategy:p.p_strategy
    ~footprint:p.p_footprint cat p.p_cmd

let run_prepared ?guard cat p =
  with_guard guard (fun () ->
      match (p.p_cmd, p.p_analyzed) with
      | Ast.Cmd_query (Ast.Select _), Some t ->
          trap (fun () ->
              Ok
                (Rows
                   (run_priced p.p_config p.p_priced p.p_strategy cat t)))
      | _ -> run_command p.p_config p.p_strategy cat p.p_cmd)

let exec ?strategy ?guard cat sql =
  Result.map_error Exec_error.to_string (run ?strategy ?guard cat sql)

let query ?(strategy = Nra_optimized) ?guard cat sql =
  Result.map_error Exec_error.to_string
    (let* cmd = parse_command sql in
     match cmd with
     | Ast.Cmd_query stmt ->
         with_guard guard (fun () ->
             run_statement !installed strategy cat stmt)
     | Ast.With_query (ctes, stmt) ->
         with_guard guard (fun () ->
             run_with !installed strategy cat ctes stmt)
     | Ast.Create_table _ | Ast.Drop_table _ | Ast.Insert_values _
     | Ast.Insert_select _ | Ast.Delete _ | Ast.Update _ | Ast.Analyze _
       ->
         Error
           (Exec_error.Invalid
              "not a query (use Nra.exec for DDL/DML/ANALYZE)"))

let query_exn ?strategy cat sql =
  match query ?strategy cat sql with
  | Ok rel -> rel
  | Error m -> failwith m

let explain cat sql =
  match Nra_planner.Analyze.analyze_string cat sql with
  | Error m -> Error m
  | Ok t ->
      let plan = Nra_exec.Classical.plan cat t in
      Ok
        (Format.asprintf
           "@[<v>tree expression:@,%a@,@,depth: %d@,linear correlated: \
            %b%a%a@]"
           Nra_planner.Analyze.pp_block t.Nra_planner.Analyze.root
           t.Nra_planner.Analyze.depth t.Nra_planner.Analyze.linear
           (fun ppf plan ->
             if plan <> [] then begin
               Format.fprintf ppf "@,classical strategies:";
               List.iter
                 (fun (id, s) ->
                   Format.fprintf ppf "@,  block T%d: %s" id
                     (Nra_exec.Classical.strategy_to_string s))
                 plan
             end)
           plan
           (fun ppf t ->
             if t.Nra_planner.Analyze.depth > 0 then
               Format.fprintf ppf
                 "@,@,nested relational pipeline (optimized):@,%s"
                 (String.trim
                    (Nra_exec.Nra.plan_description
                       (Nra_exec.Plan.lift ~base:Nra_exec.Nra.optimized t))))
           t)

(* The rewrite part of EXPLAIN COSTS: which rules are on, and — per
   NRA strategy whose plan has applicable sites — the fired/skipped
   trace with the before/after whole-plan estimates, so Auto's choice
   over rewritten plans is auditable. *)
let rewrite_section rules priced =
  match rules with
  | [] -> "rewrite: off (no rules enabled; --rewrite or NRA_REWRITE)\n"
  | _ ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "rewrite rules: %s\n" (Nra_opt.Config.mask rules));
      List.iter
        (fun s ->
          match List.assoc_opt s priced.rewrites with
          | Some (Some r) ->
              if r.Nra_opt.Rewrite.trace <> [] then begin
                Buffer.add_string buf
                  (Printf.sprintf "rewrite trace (%s): est %.1f → %.1f ms\n"
                     (strategy_to_string s)
                     r.Nra_opt.Rewrite.before.Nra_opt.Rewrite.ms
                     r.Nra_opt.Rewrite.after.Nra_opt.Rewrite.ms);
                List.iter
                  (fun l -> Buffer.add_string buf (l ^ "\n"))
                  (Nra_opt.Rewrite.trace_lines r)
              end
              else
                Buffer.add_string buf
                  (Printf.sprintf "rewrite trace (%s): no applicable sites\n"
                     (strategy_to_string s))
          | Some None | None -> ())
        [ Nra_original; Nra_optimized; Nra_full ];
      Buffer.contents buf

(* EXPLAIN COSTS renders what [price] left for Auto: the ranked
   estimates, the pick's attempt guard and each NRA strategy's rewrite
   trace. *)
let explain_costs cat sql =
  match Nra_planner.Analyze.analyze_string cat sql with
  | Error m -> Error m
  | Ok t -> (
      try
        let cfg = !installed in
        match price cfg Auto cat t with
        | { estimates = []; _ } -> Error "no strategy could be priced"
        | priced ->
            let best = budget_pick priced.estimates in
            let auto_line =
              if of_cost_strategy best.Nra_stats.Cost.strategy = Nra_optimized
              then
                "auto guard: choice is the fallback strategy; runs \
                 unguarded\n"
              else
                Printf.sprintf
                  "auto guard: attempt budget %.3f sim-I/O ms (estimate \
                   x %.1f overrun, floor %.1f ms); fallback: %s\n"
                  (auto_attempt_ms cfg best.Nra_stats.Cost.cost_ms)
                  cfg.auto_overrun cfg.auto_floor_ms
                  (strategy_to_string Nra_optimized)
            in
            Ok
              (Nra_stats.Cost.report
                 (Nra_stats.Cardinality.make_env cat t)
                 priced.estimates
              ^ "\n" ^ auto_line
              ^ rewrite_section cfg.rules priced)
      with e -> Error (Printexc.to_string e))

let auto_choice cat sql =
  match Nra_planner.Analyze.analyze_string cat sql with
  | Error m -> Error m
  | Ok t -> (
      match (price !installed Auto cat t).estimates with
      | [] | (exception _) -> Ok Nra_optimized
      | es -> Ok (of_cost_strategy (budget_pick es).Nra_stats.Cost.strategy))

let prepared_footprint p = p.p_footprint
