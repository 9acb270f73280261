module Fault = Nra_storage.Fault
module Iosim = Nra_storage.Iosim
module Pool = Nra_pool.Pool

type frames = Off | Pages of int | Mb of float

type t = {
  rules : Nra_opt.Config.rule list;
  domains : int;
  parallel_threshold : int;
  morsel : int;
  frames : frames;
  faults : Fault.config;
  iosim : Iosim.config;
  auto_overrun : float;
  auto_floor_ms : float;
}

(* the pool's sizes as it starts, before anything is configured *)
let default =
  {
    rules = [];
    domains = Pool.size ();
    parallel_threshold = Pool.parallel_threshold ();
    morsel = Pool.morsel ();
    frames = Off;
    faults = Fault.default_config;
    iosim = Iosim.default_config;
    auto_overrun = 4.0;
    auto_floor_ms = 1.0;
  }

(* whole frames of the config's page size, at least one *)
let frame_count c =
  match c.frames with
  | Off -> None
  | Pages n -> Some n
  | Mb mb ->
      let kb = Float.max 0.125 c.iosim.page_size_kb in
      Some (max 1 (int_of_float (Float.ceil (mb *. 1024.0 /. kb))))

(* ---------- the NRA_* variables ---------- *)

let ( let* ) = Result.bind

let number of_string ~lo ~hi what s =
  match of_string s with
  | Some v when v >= lo && v <= hi -> Ok v
  | _ -> Error ("expected " ^ what)

let count ~lo =
  number int_of_string_opt ~lo ~hi:max_int
    (Printf.sprintf "an integer >= %d" lo)

let prob =
  number float_of_string_opt ~lo:0.0 ~hi:1.0 "a probability in [0, 1]"

let frames_of_string s =
  let s = String.lowercase_ascii s in
  match (int_of_string_opt s, Scanf.sscanf_opt s "%fmb%!" Fun.id) with
  | Some 0, _ -> Ok Off
  | Some n, _ when n > 0 -> Ok (Pages n)
  | None, Some mb when mb > 0.0 -> Ok (Mb mb)
  | _ -> Error "expected a frame count or <X>mb"

let faults_of_string s =
  let d = Fault.default_config in
  match String.split_on_char ':' s with
  | p :: rest when List.length rest <= 3 ->
      let field i parse default =
        Option.fold ~none:(Ok default) ~some:parse (List.nth_opt rest i)
      in
      let* probability = prob p in
      let* seed = field 0 (count ~lo:0) d.seed in
      let* max_retries = field 1 (count ~lo:0) d.max_retries in
      let* alloc_probability = field 2 prob d.alloc_probability in
      Ok { d with probability; seed; max_retries; alloc_probability }
  | _ -> Error "expected p[:seed[:retries[:palloc]]]"

let of_env lookup =
  let field name parse set c =
    let* c = c in
    match Option.map String.trim (lookup name) with
    | None | Some "" -> Ok c
    | Some v -> (
        match parse v with
        | Ok x -> Ok (set c x)
        | Error why -> Error (Printf.sprintf "%s=%S: %s" name v why))
  in
  Ok default
  |> field "NRA_REWRITE" Nra_opt.Config.parse (fun c rules ->
         { c with rules })
  |> field "NRA_DOMAINS" (count ~lo:0) (fun c domains -> { c with domains })
  |> field "NRA_PARALLEL_THRESHOLD" (count ~lo:1) (fun c parallel_threshold ->
         { c with parallel_threshold })
  |> field "NRA_MORSEL" (count ~lo:1) (fun c morsel -> { c with morsel })
  |> field "NRA_BUFFER_PAGES" frames_of_string (fun c frames ->
         { c with frames })
  |> field "NRA_FAULT_INJECT" faults_of_string (fun c faults ->
         { c with faults })
