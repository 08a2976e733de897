(* Diagnostics and the allowlist shared by TreatyCheck's passes.

   A violation carries the site it should be fixed at (file:line), the rule
   that fired, a message, and — for the interprocedural passes — a witness
   chain: the call path from the entry point (or taint source) down to the
   sink/leaf, one frame per call site. The chain prints indented under the
   main diagnostic so a reader can replay the flow.

   One allowlist file serves every pass, so there is exactly one place
   justified exceptions live:

     path-suffix rule reason...

   one entry per line, reason mandatory, '#' comments. An entry suppresses
   violations of [rule] in files ending with [path-suffix]; entries that
   suppress nothing are themselves reported so the list cannot rot. *)

type frame = { fr_def : string; fr_file : string; fr_line : int }

type violation = {
  file : string;
  line : int;
  rule : string;
  message : string;
  chain : frame list;  (* outermost call first, sink/leaf last *)
}

let v ?(chain = []) ~file ~line ~rule message =
  { file; line; rule; message; chain }

let print_violation ?(out = stdout) viol =
  Printf.fprintf out "%s:%d: [%s] %s\n" viol.file viol.line viol.rule
    viol.message;
  List.iter
    (fun f ->
      Printf.fprintf out "    via %s:%d: %s\n" f.fr_file f.fr_line f.fr_def)
    viol.chain

(* --- allowlist ----------------------------------------------------------- *)

type allow = {
  suffix : string;
  a_rule : string;
  reason : string;
  mutable used : bool;
}

let load_allowlist path =
  let ic = open_in path in
  let rec lines acc n =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then lines acc (n + 1)
        else
          let fields =
            String.split_on_char ' ' line
            |> List.concat_map (String.split_on_char '\t')
            |> List.filter (fun s -> s <> "")
          in
          (match fields with
          | suffix :: a_rule :: (_ :: _ as reason_words) ->
              lines
                ({ suffix; a_rule; reason = String.concat " " reason_words;
                   used = false }
                :: acc)
                (n + 1)
          | _ ->
              Printf.eprintf
                "%s:%d: malformed allowlist entry (want: path-suffix rule \
                 reason...)\n"
                path n;
              exit 2)
  in
  lines [] 1

let allowed allows (viol : violation) =
  List.exists
    (fun a ->
      if a.a_rule = viol.rule && String.ends_with ~suffix:a.suffix viol.file
      then begin
        a.used <- true;
        true
      end
      else false)
    allows

(* Apply the allowlist, print what remains plus any unused entries, and
   return the exit status under the standard or --expect-fail convention.
   [label] names the tool in summary lines. *)
let finish ?(out = stdout) ~label ~expect_fail ~allows ~files violations =
  let remaining = List.filter (fun viol -> not (allowed allows viol)) violations in
  List.iter (fun viol -> print_violation ~out viol) remaining;
  let unused = List.filter (fun a -> not a.used) allows in
  List.iter
    (fun a ->
      Printf.fprintf out
        "%s: [allowlist] unused entry (rule %s) — remove it or fix the path\n"
        a.suffix a.a_rule)
    unused;
  let bad = remaining <> [] || unused <> [] in
  if expect_fail then
    if remaining <> [] then begin
      Printf.fprintf out "%s: violations found, as expected\n" label;
      0
    end
    else begin
      prerr_endline (label ^ ": --expect-fail but the input is clean");
      1
    end
  else begin
    Printf.fprintf out "%s: %d file(s), %d violation(s), %d allowlisted\n"
      label files (List.length remaining)
      (List.length violations - List.length remaining);
    if bad then 1 else 0
  end
