(* treaty-lint: trust-zone, determinism and protocol-hygiene checker.

   This is a thin driver: the rule engine (zones, banned-module tables, the
   AST walk and its self-tests) lives in tools/analysis as [Syntactic],
   where TreatyCheck's interprocedural passes share the same diagnostics
   and allowlist machinery. See tools/analysis/syntactic.ml for the rules
   themselves:

     crypto-primitive, untrusted-zone, hw-counter, obs-zone, cache-zone,
     wire-zone, foreign-zone, nondeterminism, wildcard-match,
     partial-failure

   Violations print as "file:line: [rule] message" and make the exit status
   non-zero. Justified exceptions live in the allowlist file shared with
   treatycheck (--allowlist, one "path-suffix rule reason..." entry per
   line, reason mandatory); entries for rules this tool does not own are
   treatycheck's business and are ignored here, while entries for our rules
   that suppress nothing are reported so the list cannot rot. *)

let () =
  let allowlist = ref "" in
  let self_test = ref false in
  let expect_fail = ref false in
  let paths = ref [] in
  let spec =
    [ ("--allowlist", Arg.Set_string allowlist,
       "FILE justified exceptions (path-suffix rule reason... per line)");
      ("--self-test", Arg.Set self_test,
       " run the built-in rule-engine checks and exit");
      ("--expect-fail", Arg.Set expect_fail,
       " invert the exit status: succeed only if violations are found")
    ]
  in
  Arg.parse spec
    (fun p -> paths := p :: !paths)
    "treaty-lint [options] FILE-OR-DIR...";
  if !self_test then exit (Syntactic.run_self_test ());
  let files = List.concat_map (fun p -> Syntactic.gather [] p) (List.rev !paths) in
  if files = [] then begin
    prerr_endline "treaty-lint: no .ml files to check";
    exit 2
  end;
  let violations = List.concat_map Syntactic.lint_file files in
  let allows =
    if !allowlist = "" then []
    else
      Diag.load_allowlist !allowlist
      |> List.filter (fun (a : Diag.allow) ->
             List.mem a.a_rule Syntactic.rules
             && List.exists
                  (fun file -> String.ends_with ~suffix:a.suffix file)
                  files)
  in
  exit
    (Diag.finish ~label:"treaty-lint" ~expect_fail:!expect_fail ~allows
       ~files:(List.length files) violations)
