(* Which rewrite rules are enabled, and the epoch counter that makes
   rule toggling visible to caches.  Rules are OFF by default: the
   rewriter only runs when the user (CLI --rewrite, NRA_REWRITE env, or
   a test) switches rules on, so the seed behavior of every strategy is
   untouched. *)

type rule = Fuse_nests | Push_down | Pipeline | Semijoin

let all = [ Fuse_nests; Push_down; Pipeline; Semijoin ]

let rule_to_string = function
  | Fuse_nests -> "fuse"
  | Push_down -> "push-down"
  | Pipeline -> "pipeline"
  | Semijoin -> "semijoin"

let rule_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "fuse" | "fuse-nests" | "nest-fusion" -> Ok Fuse_nests
  | "push-down" | "pushdown" | "push_down" -> Ok Push_down
  | "pipeline" | "pipelined" -> Ok Pipeline
  | "semijoin" | "semi-join" -> Ok Semijoin
  | other ->
      Error
        (Printf.sprintf
           "unknown rewrite rule %S (expected fuse, push-down, pipeline, \
            semijoin, or all/none)"
           other)

(* canonical order, so the mask string is stable no matter how the set
   was spelled *)
let canonical rs = List.filter (fun r -> List.mem r rs) all

let parse spec =
  match String.lowercase_ascii (String.trim spec) with
  | "" | "none" | "off" -> Ok []
  | "all" | "on" -> Ok all
  | s ->
      String.split_on_char ',' s
      |> List.fold_left
           (fun acc tok ->
             match acc with
             | Error _ -> acc
             | Ok rs -> (
                 match rule_of_string tok with
                 | Ok r -> Ok (if List.mem r rs then rs else r :: rs)
                 | Error e -> Error e))
           (Ok [])
      |> Result.map canonical

let enabled =
  ref
    (match Sys.getenv_opt "NRA_REWRITE" with
    | None -> []
    | Some spec -> ( match parse spec with Ok rs -> rs | Error _ -> []))

let epoch = ref 0
let rules () = !enabled
let current_epoch () = !epoch

let mask () =
  match !enabled with
  | [] -> "none"
  | rs -> String.concat "," (List.map rule_to_string rs)

(* plan-cache key component: the rule mask alone is not enough, because
   a cache entry stored under mask M, invalidated by toggling away and
   back to M, must not resurrect — the epoch makes each [set] distinct.
   Every statement's cache lookup reads it, so it is formatted once per
   [set]. *)
let format_signature () = Printf.sprintf "%s@%d" (mask ()) !epoch
let current_signature = ref (format_signature ())
let signature () = !current_signature

let set rs =
  enabled := canonical rs;
  incr epoch;
  current_signature := format_signature ()

let set_spec spec =
  match parse spec with
  | Ok rs ->
      set rs;
      Ok ()
  | Error e -> Error e

