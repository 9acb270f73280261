module Guard = Nra_guard.Guard

type t = {
  id : int;
  label : string;
  token : Guard.token;
  wall_ms : float option;
  sim_io_ms : float option;
  rows : int option;
  mutable spent_wall_ms : float;
  mutable spent_sim_io_ms : float;
  mutable spent_rows : int;
  mutable statements : int;
  mutable closed : bool;
}

let next_id = ref 0

let create ?label ?wall_ms ?sim_io_ms ?rows () =
  incr next_id;
  let id = !next_id in
  {
    id;
    label =
      (match label with Some l -> l | None -> Printf.sprintf "session-%d" id);
    token = Guard.token ();
    wall_ms;
    sim_io_ms;
    rows;
    spent_wall_ms = 0.0;
    spent_sim_io_ms = 0.0;
    spent_rows = 0;
    statements = 0;
    closed = false;
  }

let id t = t.id

let remaining t =
  Guard.budget
    ?wall_ms:
      (Option.map (fun l -> Float.max 0.0 (l -. t.spent_wall_ms)) t.wall_ms)
    ?sim_io_ms:
      (Option.map
         (fun l -> Float.max 0.0 (l -. t.spent_sim_io_ms))
         t.sim_io_ms)
    ?max_rows:(Option.map (fun l -> Int.max 0 (l - t.spent_rows)) t.rows)
    ~cancel_on:t.token ()

(* read in place: the scheduler asks at every pick comparison *)
let urgent t ~within =
  match t.sim_io_ms with
  | None -> false
  | Some l ->
      let left = l -. t.spent_sim_io_ms in
      (if left < 0.0 then 0.0 else left) <= within

let charge t (s : Guard.spend) =
  t.spent_wall_ms <- t.spent_wall_ms +. s.Guard.wall_ms;
  t.spent_sim_io_ms <- t.spent_sim_io_ms +. s.Guard.sim_io_ms;
  t.spent_rows <- t.spent_rows + s.Guard.rows;
  t.statements <- t.statements + 1

let spent t =
  {
    Guard.wall_ms = t.spent_wall_ms;
    sim_io_ms = t.spent_sim_io_ms;
    rows = t.spent_rows;
  }

let statements t = t.statements

let close t =
  if not t.closed then begin
    t.closed <- true;
    Guard.cancel t.token
  end

let closed t = t.closed

let pp ppf t =
  let resource ppf (name, spent, total, unit_) =
    match total with
    | None -> Format.fprintf ppf "%s: %s%s of unlimited" name spent unit_
    | Some tot -> Format.fprintf ppf "%s: %s%s of %s%s" name spent unit_ tot unit_
  in
  Format.fprintf ppf "@[<v>%s (#%d): %s, %d statement(s)@,%a@,%a@,%a@]"
    t.label t.id
    (if t.closed then "closed" else "open")
    t.statements resource
    ( "wall",
      Printf.sprintf "%.1f" t.spent_wall_ms,
      Option.map (Printf.sprintf "%.1f") t.wall_ms,
      " ms" )
    resource
    ( "sim-io",
      Printf.sprintf "%.2f" t.spent_sim_io_ms,
      Option.map (Printf.sprintf "%.2f") t.sim_io_ms,
      " ms" )
    resource
    ( "rows",
      string_of_int t.spent_rows,
      Option.map string_of_int t.rows,
      "" )
