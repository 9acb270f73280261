(* Prints the ANALYZE statistics of every column of the TPC-H catalog
   (seed 1; scale 0.01 unless given as the first argument): rows,
   NULLs, distinct values, pages per value as [%.17g], min/max and
   every equi-depth histogram bound.  Values print exactly: floats as
   [%.17g], strings quoted, dates as day numbers.

   The runtest rule diffs the scale-0.01 output against
   [stats.expected]; at scale 0.05 CI compares the output's MD5 with
   [stats_0.05.md5].  Either changes only when what ANALYZE stores
   changes, and Auto's estimates read nothing else.

   The simulated page size is set here, not read from the environment,
   so [pages_per_value] is the same under every stress configuration. *)

open Nra
module TS = Stats.Table_stats
module CS = Stats.Col_stats
module H = Stats.Histogram

let value = function
  | Value.Null -> "null"
  | Value.Bool b -> Printf.sprintf "bool %b" b
  | Value.Int i -> Printf.sprintf "int %d" i
  | Value.Float f -> Printf.sprintf "float %.17g" f
  | Value.String s -> Printf.sprintf "string %S" s
  | Value.Date d -> Printf.sprintf "date %d" d

let opt = function None -> "-" | Some v -> value v

let column name (cs : CS.t) =
  Printf.printf "  %s: rows %d, nulls %d, ndv %d, ppv %.17g\n" name cs.CS.rows
    cs.CS.nulls cs.CS.ndv cs.CS.pages_per_value;
  Printf.printf "    min %s, max %s\n" (opt cs.CS.min_v) (opt cs.CS.max_v);
  match cs.CS.hist with
  | None -> print_endline "    no histogram"
  | Some h ->
      Printf.printf "    %d buckets\n" (H.buckets h);
      Array.iter (fun v -> Printf.printf "    | %s\n" (value v)) (H.bounds h)

let () =
  let scale =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 0.01
  in
  Iosim.set_config Iosim.default_config;
  let cat =
    Tpch.Gen.generate { Tpch.Gen.default with Tpch.Gen.scale; seed = 1L }
  in
  Catalog.tables cat
  |> List.map Table.name
  |> List.sort String.compare
  |> List.iter (fun name ->
         let ts = Catalog.analyze cat name in
         Printf.printf "%s: %d rows\n" ts.TS.table ts.TS.rows;
         List.iter (fun (c, cs) -> column c cs) ts.TS.cols)
