(* The engine configuration: its one parser, [Engine_config.of_env],
   over a fake environment (each NRA_* variable's valid forms, blanks
   as unset, malformed values as errors naming the variable and its
   value); the ranges the CLI's flags share with it; a megabyte budget
   converted at the page size in effect; and [Nra.configure] installing
   each part into the module that owns it. *)

open Nra
module E = Engine_config
module Cfg = Nra.Opt.Config

let names =
  [
    "NRA_REWRITE";
    "NRA_DOMAINS";
    "NRA_PARALLEL_THRESHOLD";
    "NRA_MORSEL";
    "NRA_BUFFER_PAGES";
    "NRA_FAULT_INJECT";
  ]

let parse pairs = E.of_env (fun name -> List.assoc_opt name pairs)

let ok pairs =
  match parse pairs with Ok c -> c | Error m -> Alcotest.fail m

let one name value = ok [ (name, value) ]

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let test_unset_and_blank () =
  Alcotest.(check bool) "nothing set is the default" true (ok [] = E.default);
  Alcotest.(check bool) "blank values are unset" true
    (ok (List.map (fun n -> (n, " ")) names) = E.default)

let test_valid_forms () =
  let rules v = (one "NRA_REWRITE" v).rules in
  let check_rules what expect v =
    Alcotest.(check (list string)) what
      (List.map Cfg.rule_to_string expect)
      (List.map Cfg.rule_to_string (rules v))
  in
  check_rules "all" Cfg.all "all";
  check_rules "none" [] "none";
  check_rules "a list, canonical"
    [ Cfg.Push_down; Cfg.Semijoin ]
    "semijoin, push-down";
  let int what expect got = Alcotest.(check int) what expect got in
  int "NRA_DOMAINS=0" 0 (one "NRA_DOMAINS" "0").domains;
  int "NRA_DOMAINS=4" 4 (one "NRA_DOMAINS" " 4 ").domains;
  int "NRA_PARALLEL_THRESHOLD=4" 4
    (one "NRA_PARALLEL_THRESHOLD" "4").parallel_threshold;
  int "NRA_MORSEL=16" 16 (one "NRA_MORSEL" "16").morsel;
  let frames v = (one "NRA_BUFFER_PAGES" v).frames in
  Alcotest.(check bool) "8 frames" true (frames "8" = E.Pages 8);
  Alcotest.(check bool) "0 is off" true (frames "0" = E.Off);
  Alcotest.(check bool) "32MB" true (frames "32MB" = E.Mb 32.0);
  let faults v = (one "NRA_FAULT_INJECT" v).faults in
  let d = Fault.default_config in
  Alcotest.(check bool) "p" true
    (faults "0.02" = { d with Fault.probability = 0.02 });
  Alcotest.(check bool) "p:seed" true
    (faults "0.02:7" = { d with Fault.probability = 0.02; seed = 7 });
  Alcotest.(check bool) "p:seed:retries" true
    (faults "0.02:7:6"
    = { d with Fault.probability = 0.02; seed = 7; max_retries = 6 });
  Alcotest.(check bool) "p:seed:retries:palloc" true
    (faults "0.02:7:6:0.05"
    = {
        d with
        Fault.probability = 0.02;
        seed = 7;
        max_retries = 6;
        alloc_probability = 0.05;
      });
  let all =
    ok
      [
        ("NRA_REWRITE", "all");
        ("NRA_DOMAINS", "4");
        ("NRA_BUFFER_PAGES", "8");
        ("NRA_FAULT_INJECT", "0.02:7:6:0");
      ]
  in
  Alcotest.(check bool) "variables compose" true
    (all.rules = Cfg.all && all.domains = 4 && all.frames = E.Pages 8
    && all.faults.Fault.seed = 7)

let test_malformed () =
  List.iter
    (fun (name, value) ->
      match parse [ (name, value) ] with
      | Ok _ -> Alcotest.failf "%s=%s accepted" name value
      | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "%s=%s: %S names both" name value m)
            true
            (contains m name && contains m value))
    [
      ("NRA_REWRITE", "bogus");
      ("NRA_REWRITE", "semijoin,bogus");
      ("NRA_DOMAINS", "four");
      ("NRA_DOMAINS", "-1");
      ("NRA_PARALLEL_THRESHOLD", "0");
      ("NRA_MORSEL", "1k");
      ("NRA_BUFFER_PAGES", "-3");
      ("NRA_BUFFER_PAGES", "0mb");
      ("NRA_BUFFER_PAGES", "12kb");
      ("NRA_FAULT_INJECT", "y");
      ("NRA_FAULT_INJECT", "1.5");
      ("NRA_FAULT_INJECT", "1.0:7:0:y");
      ("NRA_FAULT_INJECT", "0.02:seven");
      ("NRA_FAULT_INJECT", "0.02:7:-1");
      ("NRA_FAULT_INJECT", "0.02:7:6:0:9");
    ]

(* The CLI reads its engine flags through [Engine_config.Range], the
   ranges [of_env] reads the variables through, so a flag value the
   environment refuses is refused rather than clamped. *)
let test_flag_ranges () =
  let refused what = function
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S says what it expected" what m)
          true (contains m "expected")
  in
  refused "--buffer-pages=-3" (E.Range.pages "-3");
  refused "--page-size-kb=-4" (E.Range.page_size_kb "-4");
  refused "--domains=-2" (E.Range.domains "-2");
  refused "--faults 5" (E.Range.probability "5");
  Alcotest.(check bool) "in range" true
    (E.Range.pages "0" = Ok 0
    && E.Range.page_size_kb "4" = Ok 4.0
    && E.Range.domains "0" = Ok 0
    && E.Range.probability "1" = Ok 1.0);
  Alcotest.(check bool) "the environment refuses the same values" true
    (Result.is_error (parse [ ("NRA_BUFFER_PAGES", "-3") ])
    && Result.is_error (parse [ ("NRA_DOMAINS", "-2") ])
    && Result.is_error (parse [ ("NRA_FAULT_INJECT", "5") ]))

(* 0.1 MB is 25.6 pages of 4 KB: 26 frames, whether the budget came
   from the environment or a flag, and 13 at the default 8 KB *)
let test_mb_at_page_size () =
  let at_4kb c =
    { c with E.iosim = { c.E.iosim with Iosim.page_size_kb = 4.0 } }
  in
  let from_env = at_4kb (one "NRA_BUFFER_PAGES" "0.1mb") in
  let from_flag = at_4kb { E.default with frames = E.Mb 0.1 } in
  Alcotest.(check (option int)) "NRA_BUFFER_PAGES=0.1mb at 4 KB" (Some 26)
    (E.frame_count from_env);
  Alcotest.(check (option int)) "--buffer-mb 0.1 at 4 KB" (Some 26)
    (E.frame_count from_flag);
  Alcotest.(check (option int)) "0.1mb at 8 KB" (Some 13)
    (E.frame_count (one "NRA_BUFFER_PAGES" "0.1mb"));
  Test_support.with_config (fun _ -> from_env) @@ fun () ->
  Alcotest.(check (option int)) "installed" (Some 26) (Bufpool.frames ())

let test_configure_installs () =
  let target c =
    {
      c with
      E.rules = [ Cfg.Push_down ];
      domains = 2;
      parallel_threshold = 3;
      morsel = 5;
      frames = E.Pages 7;
      faults =
        { Fault.default_config with Fault.probability = 0.01; seed = 3 };
      iosim = { c.E.iosim with Iosim.rows_per_page = 4 };
      auto_overrun = 2.0;
    }
  in
  let before = Nra.config () in
  Test_support.with_config target (fun () ->
      Alcotest.(check bool) "config reads back what was installed" true
        (Nra.config () = target before);
      Alcotest.(check (list int)) "the pool's part" [ 2; 3; 5 ]
        [ Pool.size (); Pool.parallel_threshold (); Pool.morsel () ];
      Alcotest.(check (option int)) "the buffer pool's part" (Some 7)
        (Bufpool.frames ());
      Alcotest.(check int) "the I/O model's part" 4
        (Iosim.config ()).Iosim.rows_per_page;
      Alcotest.(check bool) "fault injection's part" true (Fault.enabled ());
      (* installing the same config again resets nothing *)
      let t = Bufpool.owner "t" in
      Bufpool.read t 0;
      Nra.configure (Nra.config ());
      Alcotest.(check bool) "residency kept" true (Bufpool.resident t 0));
  Alcotest.(check bool) "restored" true (Nra.config () = before)

let () =
  Alcotest.run "config"
    [
      ( "of_env",
        [
          Alcotest.test_case "unset and blank" `Quick test_unset_and_blank;
          Alcotest.test_case "valid forms" `Quick test_valid_forms;
          Alcotest.test_case "malformed values fail" `Quick test_malformed;
          Alcotest.test_case "flag ranges" `Quick test_flag_ranges;
          Alcotest.test_case "mb at the page size in effect" `Quick
            test_mb_at_page_size;
        ] );
      ( "install",
        [
          Alcotest.test_case "each part to its owner" `Quick
            test_configure_installs;
        ] );
    ]
