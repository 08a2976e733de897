(* Hermetic self-tests for the interprocedural passes and the allowlist.

   Each case is a tiny OCaml source typechecked in-process (compiler-libs
   Typemod against the ambient stdlib), loaded as the synthetic unit [Self]
   and analyzed with a spec whose source/sink/lock tables point at the
   case's own helpers. No fixture files, no dune plumbing: `treatycheck
   --self-test` must pass anywhere the tool builds, and a regression in
   resolution, summaries or reachability shows up as a named case. *)

type case = {
  label : string;
  rule : string;  (* which pass + which rule the case exercises *)
  expect : int;  (* violations of [rule] the pass must report *)
  source : string;
}

let cases =
  [
    {
      label = "taint: secret laundered through two helpers reaches a sink";
      rule = "taint-escape";
      expect = 1;
      source =
        {|
let get_secret () = Bytes.make 32 'k'
let wrap b = Bytes.to_string b
let relay s = print_string s
let handle_x () = relay (wrap (get_secret ()))
|};
    };
    {
      label = "taint: declassifier on the path suppresses the flow";
      rule = "taint-escape";
      expect = 0;
      source =
        {|
let get_secret () = Bytes.make 32 'k'
let seal b = Bytes.to_string b
let handle_x () = print_string (seal (get_secret ()))
|};
    };
    {
      label = "taint: direct source-to-sink in one body";
      rule = "taint-escape";
      expect = 1;
      source =
        {|
let get_secret () = Bytes.make 32 'k'
let handle_x () = print_string (Bytes.to_string (get_secret ()))
|};
    };
    {
      label = "nondet: PRNG two calls below a handler";
      rule = "nondet-effect";
      expect = 1;
      source =
        {|
let leaf () = Random.int 10
let mid () = leaf () + 1
let handle_req () = mid ()
|};
    };
    {
      label = "nondet: unreachable PRNG is not reported";
      rule = "nondet-effect";
      expect = 0;
      source =
        {|
let unused_leaf () = Random.int 10
let handle_req () = 42
|};
    };
    {
      label = "nondet: physical equality on a mutable record";
      rule = "nondet-effect";
      expect = 1;
      source =
        {|
type cell = { mutable v : int }
let handle_eq (a : cell) (b : cell) = ignore a.v; a == b
|};
    };
    {
      label = "nondet: physical equality on an immutable value is fine";
      rule = "nondet-effect";
      expect = 0;
      source = {|
let handle_eq (a : string) (b : string) = a == b
|};
    };
    {
      label = "locks: ABBA lock order cycle";
      rule = "lock-order";
      expect = 1;
      source =
        {|
let acquire ~key n = ignore key; ignore n
let release n = ignore n
let ab n = acquire ~key:"A" n; acquire ~key:"B" n; release n
let ba n = acquire ~key:"B" n; acquire ~key:"A" n; release n
|};
    };
    {
      label = "locks: consistent lock order is fine";
      rule = "lock-order";
      expect = 0;
      source =
        {|
let acquire ~key n = ignore key; ignore n
let release n = ignore n
let ab n = acquire ~key:"A" n; acquire ~key:"B" n; release n
let ab2 n = acquire ~key:"A" n; acquire ~key:"B" n; release n
|};
    };
  ]

(* The self-test spec: production tables, with the case helpers standing in
   for the crypto sources / lock table. *)
let spec =
  {
    Spec.production with
    sources = (fun n -> n = "Self.get_secret");
    declassifiers = (fun n -> n = "Self.seal");
    taint_skip_unit = (fun _ -> false);
    lock_acquire = (fun n -> n = "Self.acquire");
    lock_release = (fun n -> n = "Self.release");
  }

let env =
  lazy
    (Compmisc.init_path ();
     (* Self-test sources are deliberately scruffy; compiler warnings about
        them are noise. *)
     ignore (Warnings.parse_options false "-a");
     Compmisc.initial_env ())

let typecheck source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf "self.ml";
  let parsed = Parse.implementation lexbuf in
  let str, _, _, _, _ = Typemod.type_structure (Lazy.force env) parsed in
  { Ir.ui_name = "Self"; ui_file = "self.ml"; ui_str = str }

let pass_for rule prog =
  match rule with
  | "taint-escape" -> Taint.run spec prog
  | "nondet-effect" -> Determinism.run spec prog
  | _ -> Locks.run spec prog

(* Diag.finish's unused-entry check is the allowlist's only guard against
   going stale: one entry for a syntactic rule must let a run with its
   violation pass (exit 0) and fail the same run over a clean source
   (exit 1). *)
let allowlist_exit source =
  let path = "lib/core/node.ml" in
  let allows =
    [ { Diag.suffix = path; a_rule = "wildcard-match"; reason = "self-test";
        used = false } ]
  in
  let out = open_out Filename.null in
  let status =
    Syntactic.lint ~path (Syntactic.parse_source ~path source)
    |> Diag.finish ~out ~label:"self-test" ~expect_fail:false ~allows ~files:1
  in
  close_out out;
  status

let allowlist_label = "allowlist: an entry that suppresses nothing fails the run"

let run () =
  let failures = ref 0 in
  if
    allowlist_exit "let f x = match x with 0 -> () | _ -> ()" = 0
    && allowlist_exit "let f x = x" = 1
  then Printf.printf "ok   %s\n" allowlist_label
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" allowlist_label
  end;
  List.iter
    (fun c ->
      match
        let prog = Ir.load_units [ typecheck c.source ] in
        pass_for c.rule prog
      with
      | exception exn ->
          incr failures;
          Printf.printf "FAIL %s\n  raised: " c.label;
          Location.report_exception Format.std_formatter exn
      | violations ->
          let hits =
            List.filter (fun (v : Diag.violation) -> v.rule = c.rule) violations
          in
          let stray =
            List.filter (fun (v : Diag.violation) -> v.rule <> c.rule) violations
          in
          if List.length hits = c.expect && stray = [] then
            Printf.printf "ok   %s\n" c.label
          else begin
            incr failures;
            Printf.printf "FAIL %s\n  want %d violation(s) of %s, got:\n"
              c.label c.expect c.rule;
            List.iter (Diag.print_violation ~out:stdout) violations
          end)
    cases;
  if !failures = 0 then begin
    Printf.printf "treatycheck self-test: %d case(s) ok\n"
      (List.length cases + 1);
    0
  end
  else begin
    Printf.printf "treatycheck self-test: %d failure(s)\n" !failures;
    1
  end
