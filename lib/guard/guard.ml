type resource = Wall_clock | Sim_io | Rows

let resource_to_string = function
  | Wall_clock -> "wall-clock"
  | Sim_io -> "simulated-io"
  | Rows -> "intermediate-rows"

type kill = Budget_exceeded of resource | Cancelled

exception Killed of kill

(* ---------- cancellation ---------- *)

type token = bool ref

let token () = ref false
let cancel t = t := true
let cancelled t = !t

(* ---------- budgets ---------- *)

type budget = {
  wall_ms : float option;
  sim_io_ms : float option;
  max_rows : int option;
  cancel_on : token option;
}

let unlimited =
  { wall_ms = None; sim_io_ms = None; max_rows = None; cancel_on = None }

let budget ?wall_ms ?sim_io_ms ?max_rows ?cancel_on () =
  { wall_ms; sim_io_ms; max_rows; cancel_on }

let min_opt merge a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (merge a b)

let min_budget a b =
  {
    wall_ms = min_opt Float.min a.wall_ms b.wall_ms;
    sim_io_ms = min_opt Float.min a.sim_io_ms b.sim_io_ms;
    max_rows = min_opt Int.min a.max_rows b.max_rows;
    cancel_on = (match a.cancel_on with Some _ as t -> t | None -> b.cancel_on);
  }

let is_unlimited b =
  b.wall_ms = None && b.sim_io_ms = None && b.max_rows = None
  && b.cancel_on = None

(* ---------- the active guard ----------

   A statement may run as a cooperative-scheduler task that is suspended
   and resumed many times, so a scope cannot measure its consumption as
   "now minus a fixed start": while the task is descheduled, other tasks
   advance both the wall clock and the shared simulated-I/O clock, and
   neither belongs to this statement.  Each scope therefore accrues
   consumption incrementally — [acc] holds what was spent in completed
   run slices, [base] marks where the current slice began — and
   {!save_ctx}/{!restore_ctx} fold/rebase at every context switch, so a
   scope is only ever charged for time that passed while its own task
   was running.

   The active scopes form an explicit stack (innermost first): the whole
   stack IS the task's guard context, detached wholesale on suspend. *)

(* A scope's clocks, all floats: a flat record stores them unboxed,
   so folding and rebasing at a context switch allocates nothing. *)
type clocks = {
  mutable wall_acc_ms : float;  (* spent in finished run slices *)
  mutable io_acc_ms : float;
  mutable wall_base : float;  (* where the current slice began *)
  mutable io_base_ms : float;
}

type state = {
  b : budget;
  c : clocks;
  mutable rows : int;
  mutable ticks : int;
}

let stack : state list ref = ref []

(* clock readings land in these flat float records, not in a returned
   (boxed) float *)
let io_now = { Nra_storage.Iosim.ms = 0.0 }
let wall_now = { Nra_storage.Iosim.ms = 0.0 }

let io_now_ms () =
  Nra_storage.Iosim.sample_ms io_now;
  io_now.ms

let install b =
  {
    b;
    c =
      {
        wall_acc_ms = 0.0;
        io_acc_ms = 0.0;
        wall_base = Unix.gettimeofday ();
        io_base_ms = io_now_ms ();
      };
    rows = 0;
    ticks = 0;
  }

let wall_spent s =
  s.c.wall_acc_ms +. ((Unix.gettimeofday () -. s.c.wall_base) *. 1000.0)

let io_spent s = s.c.io_acc_ms +. (io_now_ms () -. s.c.io_base_ms)

(* [io_spent s > limit] without returning a float: checked at every
   checkpoint under a simulated-I/O budget *)
let io_over s limit =
  Nra_storage.Iosim.sample_ms io_now;
  s.c.io_acc_ms +. (io_now.ms -. s.c.io_base_ms) > limit

let active () = match !stack with [] -> None | s :: _ -> Some s.b

(* ---------- scheduler integration ---------- *)

(* The cooperative scheduler (nra.server) registers a hook here; every
   checkpoint calls it after the budget checks, and the hook decides
   whether the running task's quantum has expired and performs its
   yield effect.  The guard itself knows nothing about effects — this
   indirection is what lets the seven evaluators interleave without any
   of them changing. *)
let yield_hook : (unit -> unit) option ref = ref None
let set_yield_hook h = yield_hook := h

(* Critical sections: Auto's killable attempt rolls the I/O ledger back
   on a kill, which must not erase charges a concurrently scheduled
   statement accrued in between; DML's read-validate-commit must not
   interleave with another writer.  Both run with yields suppressed. *)
let no_yield_depth = ref 0

let with_no_yield f =
  incr no_yield_depth;
  Fun.protect ~finally:(fun () -> decr no_yield_depth) f

let yields_suppressed () = !no_yield_depth > 0

let maybe_yield () =
  match !yield_hook with
  | Some h when !no_yield_depth = 0 -> h ()
  | _ -> ()

(* A task's detached context is its guard-scope stack plus its open
   per-task Iosim ledgers (Auto's attempt ledger must only see charges
   from its own task's run slices, so it detaches and reattaches with
   the scopes). *)
type ctx = { scopes : state list; io : Nra_storage.Iosim.task_io }

let empty_ctx : ctx =
  { scopes = []; io = Nra_storage.Iosim.empty_task }

(* the loops over the scopes read the clocks from [wall_now] and
   [io_now]: recursive functions, not [List.iter] closures over the
   readings *)
let rec fold_slices = function
  | [] -> ()
  | s :: rest ->
      let c = s.c in
      c.wall_acc_ms <-
        c.wall_acc_ms +. ((wall_now.ms -. c.wall_base) *. 1000.0);
      c.io_acc_ms <- c.io_acc_ms +. (io_now.ms -. c.io_base_ms);
      c.wall_base <- wall_now.ms;
      c.io_base_ms <- io_now.ms;
      fold_slices rest

let rec rebase = function
  | [] -> ()
  | s :: rest ->
      s.c.wall_base <- wall_now.ms;
      s.c.io_base_ms <- io_now.ms;
      rebase rest

let sample_clocks () =
  wall_now.ms <- Unix.gettimeofday ();
  Nra_storage.Iosim.sample_ms io_now

(* With no scope and no ledger installed (the host around a slice, a
   task that runs unbudgeted) there is nothing to detach: the shared
   [empty_ctx] stands for it. *)
let save_ctx () =
  match (!stack, Nra_storage.Iosim.save_task ()) with
  | [], io when io == Nra_storage.Iosim.empty_task -> empty_ctx
  | scopes, io ->
      (match scopes with
      | [] -> ()
      | _ ->
          sample_clocks ();
          fold_slices scopes);
      stack := [];
      { scopes; io }

let restore_ctx c =
  (match c.scopes with
  | [] -> ()
  | scopes ->
      sample_clocks ();
      rebase scopes);
  stack := c.scopes;
  Nra_storage.Iosim.restore_task c.io

(* ---------- events ---------- *)

type events = {
  budget_kills : int;
  cancellations : int;
  auto_fallbacks : int;
}

let ev = ref { budget_kills = 0; cancellations = 0; auto_fallbacks = 0 }
let events () = !ev
let reset_events () =
  ev := { budget_kills = 0; cancellations = 0; auto_fallbacks = 0 }

let note_fallback () =
  ev := { !ev with auto_fallbacks = !ev.auto_fallbacks + 1 }

let note_kill = function
  | Budget_exceeded _ -> ev := { !ev with budget_kills = !ev.budget_kills + 1 }
  | Cancelled -> ev := { !ev with cancellations = !ev.cancellations + 1 }

(* ---------- checkpoints ---------- *)

let check s =
  (match s.b.cancel_on with
  | Some t when !t -> raise (Killed Cancelled)
  | _ -> ());
  (match s.b.sim_io_ms with
  | Some limit when io_over s limit ->
      raise (Killed (Budget_exceeded Sim_io))
  | _ -> ());
  (* the wall clock moves slowly relative to row production; sample it
     every 32nd tick to keep the checkpoint cheap *)
  if s.ticks land 31 = 0 then
    match s.b.wall_ms with
    | Some limit when wall_spent s > limit ->
        raise (Killed (Budget_exceeded Wall_clock))
    | _ -> ()

let tick () =
  (match !stack with
  | [] -> ()
  | s :: _ ->
      s.ticks <- s.ticks + 1;
      check s);
  maybe_yield ()

let recheck () =
  match !stack with
  | [] -> ()
  | s :: _ -> (
      (match s.b.cancel_on with
      | Some t when !t -> raise (Killed Cancelled)
      | _ -> ());
      (match s.b.sim_io_ms with
      | Some limit when io_over s limit ->
          raise (Killed (Budget_exceeded Sim_io))
      | _ -> ());
      (match s.b.wall_ms with
      | Some limit when wall_spent s > limit ->
          raise (Killed (Budget_exceeded Wall_clock))
      | _ -> ());
      match s.b.max_rows with
      | Some limit when s.rows > limit ->
          raise (Killed (Budget_exceeded Rows))
      | _ -> ())

(* Parallel regions (nra.pool) accrue checkpoints into worker-local
   ledgers; the owner merges them here in one call at the join barrier.
   Folding into the top scope only mirrors tick/add_rows: enclosing
   scopes receive the rows when the scope exits (see with_budget). *)
let absorb ~ticks ~rows =
  (match !stack with
  | [] -> ()
  | s :: _ ->
      s.ticks <- s.ticks + ticks;
      s.rows <- s.rows + rows);
  recheck ()

let add_rows n =
  (match !stack with
  | [] -> ()
  | s :: _ -> (
      s.rows <- s.rows + n;
      match s.b.max_rows with
      | Some limit when s.rows > limit ->
          raise (Killed (Budget_exceeded Rows))
      | _ -> ()));
  maybe_yield ()

(* ---------- spend accounting ---------- *)

type spend = { wall_ms : float; sim_io_ms : float; rows : int }

let zero_spend = { wall_ms = 0.0; sim_io_ms = 0.0; rows = 0 }
let last = ref zero_spend
let last_spend () = !last

let with_budget b f =
  let saved = !stack in
  let s = install b in
  stack := s :: saved;
  Fun.protect
    ~finally:(fun () ->
      let wall = wall_spent s and io = io_spent s in
      stack := saved;
      last := { wall_ms = wall; sim_io_ms = io; rows = s.rows };
      (* rows materialized inside also count against the enclosing
         budget (without re-raising during unwind: the next enclosing
         add_rows/tick surfaces the overrun) *)
      match saved with
      | outer :: _ -> outer.rows <- outer.rows + s.rows
      | [] -> ())
    f

let remaining () =
  match !stack with
  | [] -> unlimited
  | s :: _ ->
      {
        wall_ms =
          Option.map (fun l -> Float.max 0.0 (l -. wall_spent s)) s.b.wall_ms;
        sim_io_ms =
          Option.map (fun l -> Float.max 0.0 (l -. io_spent s)) s.b.sim_io_ms;
        max_rows = Option.map (fun l -> Int.max 0 (l - s.rows)) s.b.max_rows;
        cancel_on = s.b.cancel_on;
      }
