(* treatycheck — TreatyCheck's command-line driver.

   Runs four passes over the given paths:

     syntactic  per-file zone/determinism/hygiene rules over the .ml
                sources (see syntactic.ml for the rule list)
     taint      secret-taint escape        [taint-escape]
     nondet     determinism effects        [nondet-effect]
     locks      lock-order safety          [lock-order]

   The syntactic pass parses .ml sources and needs no build, so
   `--pass syntactic FILE.ml` works on an uncompiled fixture. The other
   three load every .cmt under the given paths (dune keeps them in .objs/
   directories; pass lib trees from _build, or individual files) and build
   the whole-program IR. `--pass all` (the default) runs all four.

   Exit 0 when clean (or, with --expect-fail, when violations were found),
   1 on findings or stale allowlist entries, 2 on usage/load errors. *)

let usage () =
  prerr_endline
    "usage: treatycheck [--pass syntactic|taint|nondet|locks|all]\n\
    \       [--allowlist FILE] [--expect-fail] [--self-test] PATHS...\n\
     PATHS are files or directories searched recursively for .ml sources\n\
     (syntactic pass) and .cmt files (the other passes).";
  exit 2

let () =
  let pass = ref "all" in
  let allowlist = ref None in
  let expect_fail = ref false in
  let self_test = ref false in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--pass" :: v :: rest ->
        if not (List.mem v [ "syntactic"; "taint"; "nondet"; "locks"; "all" ])
        then usage ();
        pass := v;
        parse rest
    | "--allowlist" :: f :: rest ->
        allowlist := Some f;
        parse rest
    | "--expect-fail" :: rest ->
        expect_fail := true;
        parse rest
    | "--self-test" :: rest ->
        self_test := true;
        parse rest
    | p :: rest ->
        if String.length p > 0 && p.[0] = '-' then usage ();
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !self_test then begin
    let syntactic = Syntactic.run_self_test () in
    exit (max syntactic (Selftest.run ()))
  end;
  if !paths = [] then usage ();
  let paths = List.rev !paths in
  let want p = !pass = "all" || !pass = p in
  let sources =
    if want "syntactic" then List.concat_map (Syntactic.gather []) paths
    else []
  in
  if want "syntactic" && sources = [] then begin
    prerr_endline "treatycheck: no .ml files found under the given paths";
    exit 2
  end;
  let typed = !pass <> "syntactic" in
  let prog, units =
    if typed then Ir.load_paths paths else (Ir.empty_program (), 0)
  in
  if typed && units = 0 then begin
    prerr_endline "treatycheck: no .cmt files found under the given paths";
    exit 2
  end;
  let spec = Spec.production in
  let violations =
    List.concat_map Syntactic.lint_file sources
    @ (if want "taint" then Taint.run spec prog else [])
    @ (if want "nondet" then Determinism.run spec prog else [])
    @ if want "locks" then Locks.run spec prog else []
  in
  let active_rules =
    (if want "syntactic" then Syntactic.rules else [])
    @ (if want "taint" then [ Taint.rule ] else [])
    @ (if want "nondet" then [ Determinism.rule ] else [])
    @ if want "locks" then [ Locks.rule ] else []
  in
  (* One allowlist serves every pass and every analysis scope: entries for
     passes not being run, or for files outside the tree being analyzed,
     are not "unused" here. *)
  let files =
    Hashtbl.fold (fun _ (d : Ir.def) acc -> d.Ir.d_file :: acc) prog.Ir.defs
      sources
  in
  let allows =
    match !allowlist with
    | None -> []
    | Some f ->
        Diag.load_allowlist f
        |> List.filter (fun (a : Diag.allow) ->
               List.mem a.a_rule active_rules
               && List.exists (String.ends_with ~suffix:a.suffix) files)
  in
  exit
    (Diag.finish
       ~label:("treatycheck --pass " ^ !pass)
       ~expect_fail:!expect_fail ~allows
       ~files:(if typed then units else List.length sources)
       violations)
