(* The rewrite rules and their one parser.  Which rules a statement
   runs under is a field of the engine configuration it was prepared
   with ([Nra.Engine_config]); rules are off by default, so the seed
   behavior of every strategy is untouched. *)

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

let mask rs =
  match canonical rs with
  | [] -> "none"
  | rs -> String.concat "," (List.map rule_to_string rs)
