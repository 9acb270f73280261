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
      let kb = c.iosim.page_size_kb in
      Some (max 1 (int_of_float (Float.ceil (mb *. 1024.0 /. kb))))

(* ---------- ranges ---------- *)

module Range = struct
  let number of_string ok what s =
    match of_string s with
    | Some v when ok v -> Ok v
    | _ -> Error ("expected " ^ what)

  let at_least lo =
    number int_of_string_opt (fun n -> n >= lo)
      (Printf.sprintf "an integer >= %d" lo)

  let positive =
    number float_of_string_opt
      (fun x -> Float.is_finite x && x > 0.0)
      "a number > 0"

  let domains = at_least 0
  let count = at_least 1
  let pages = at_least 0
  let megabytes = positive
  let page_size_kb = positive

  let probability =
    number float_of_string_opt
      (fun p -> p >= 0.0 && p <= 1.0)
      "a probability in [0, 1]"

  let seed = at_least 0
  let retries = at_least 0
end

(* ---------- the NRA_* variables ---------- *)

let ( let* ) = Result.bind

let frames_of_string s =
  let s = String.lowercase_ascii s in
  let mb =
    if String.ends_with ~suffix:"mb" s then
      Result.to_option (Range.megabytes (String.sub s 0 (String.length s - 2)))
    else None
  in
  match (Range.pages s, mb) with
  | Ok 0, _ -> Ok Off
  | Ok n, _ -> Ok (Pages n)
  | Error _, Some mb -> Ok (Mb mb)
  | Error _, None -> Error "expected a frame count or <X>mb"

let faults_of_string s =
  let d = Fault.default_config in
  match String.split_on_char ':' s with
  | p :: rest when List.length rest <= 3 ->
      let field i parse default =
        Option.fold ~none:(Ok default) ~some:parse (List.nth_opt rest i)
      in
      let* probability = Range.probability p in
      let* seed = field 0 Range.seed d.seed in
      let* max_retries = field 1 Range.retries d.max_retries in
      let* alloc_probability = field 2 Range.probability d.alloc_probability in
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
  |> field "NRA_DOMAINS" Range.domains (fun c domains -> { c with domains })
  |> field "NRA_PARALLEL_THRESHOLD" Range.count (fun c parallel_threshold ->
         { c with parallel_threshold })
  |> field "NRA_MORSEL" Range.count (fun c morsel -> { c with morsel })
  |> field "NRA_BUFFER_PAGES" frames_of_string (fun c frames ->
         { c with frames })
  |> field "NRA_FAULT_INJECT" faults_of_string (fun c faults ->
         { c with faults })
