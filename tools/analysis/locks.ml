(* Lock-order safety.

   Every Lock_table.acquire site is classified by its ~key argument: a
   string literal is its own lock class ("A"), anything dynamic is the
   single class <dyn>. Within a def, events are scanned in body order:
   acquiring B while A is held adds an order edge A->B (releases clear the
   held set); calling a function while holding A adds A->c for every class
   c the callee may transitively acquire. A cycle between *distinct named*
   classes is an ABBA deadlock and is reported with the acquisition sites.
   <dyn> edges never form cycles on purpose: Treaty acquires per-key locks
   incrementally and resolves conflicts by timeout (the paper's deadlock
   strategy), so dynamic multi-key acquisition is by design and checked at
   runtime by TreatySan's Lock_conflict warnings. *)

let rule = "lock-order"

type event =
  | Acquire of string * int  (* lock class, line *)
  | Release
  | Call of string * int  (* resolved callee, line *)

let labelled_arg label args =
  List.find_map
    (fun (l, eo) ->
      match (l, eo) with
      | Asttypes.Labelled l', Some e when l' = label -> Some e
      | _ -> None)
    args

let lock_class (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_constant (Const_string (s, _, _)) -> "\"" ^ s ^ "\""
  | _ -> "<dyn>"

let run (spec : Spec.t) (prog : Ir.program) : Diag.violation list =
  let events_tbl : (string, event list) Hashtbl.t = Hashtbl.create 256 in
  let special name = spec.lock_acquire name || spec.lock_release name in
  (* Each def's lock events and calls, in body order. *)
  let extract (d : Ir.def) =
    let events = ref [] in
    let open Tast_iterator in
    let super = default_iterator in
    let expr self (e : Typedtree.expression) =
      (match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
          let callee = d.d_resolve p in
          let line = Ir.line_of e.exp_loc in
          if spec.lock_acquire callee then begin
            let cls =
              match labelled_arg "key" args with
              | Some k -> lock_class k
              | None -> "<dyn>"
            in
            events := Acquire (cls, line) :: !events
          end
          else if spec.lock_release callee then events := Release :: !events
      | Texp_ident (p, _, _) ->
          (* A function mentioned without application still counts as a
             potential call. *)
          let n = d.d_resolve p in
          if n <> "" && (not (special n)) && Hashtbl.mem prog.defs n then
            events := Call (n, Ir.line_of e.exp_loc) :: !events
      | _ -> ());
      super.expr self e
    in
    let it = { super with expr } in
    it.expr it d.d_body;
    Hashtbl.replace events_tbl d.d_name (List.rev !events)
  in
  List.iter (fun name -> extract (Hashtbl.find prog.defs name)) prog.order;
  let events name = Hashtbl.find_opt events_tbl name in
  (* Transitive acquire classes per def, to a fixed point. *)
  let acq : (string, (string, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter (fun name -> Hashtbl.replace acq name (Hashtbl.create 4)) prog.order;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun name ->
        match events name with
        | None -> ()
        | Some evs ->
            let mine = Hashtbl.find acq name in
            let add c =
              if not (Hashtbl.mem mine c) then begin
                Hashtbl.replace mine c ();
                changed := true
              end
            in
            List.iter
              (function
                | Acquire (c, _) -> add c
                | Call (g, _) -> (
                    match Hashtbl.find_opt acq g with
                    | Some theirs -> Hashtbl.iter (fun c () -> add c) theirs
                    | None -> ())
                | Release -> ())
              evs)
      prog.order
  done;
  (* Order edges with witness sites. *)
  let edges : (string * string, Diag.frame) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun name ->
      match events name with
      | None -> ()
      | Some evs ->
          let d = Hashtbl.find prog.defs name in
          let held = ref [] in
          let edge a b line =
            if a <> b && not (Hashtbl.mem edges (a, b)) then
              Hashtbl.replace edges (a, b)
                { Diag.fr_def = name; fr_file = d.d_file; fr_line = line }
          in
          List.iter
            (function
              | Acquire (c, line) ->
                  List.iter (fun h -> edge h c line) !held;
                  if not (List.mem c !held) then held := !held @ [ c ]
              | Release -> held := []
              | Call (g, line) -> (
                  match Hashtbl.find_opt acq g with
                  | None -> ()
                  | Some theirs ->
                      Hashtbl.iter
                        (fun c () -> List.iter (fun h -> edge h c line) !held)
                        theirs))
            evs)
    prog.order;
  let violations = ref [] in
  let nodes =
    Hashtbl.fold (fun (a, b) _ acc -> a :: b :: acc) edges []
    |> List.sort_uniq compare
    |> List.filter (fun c -> c <> "<dyn>")
  in
  let succs a =
    Hashtbl.fold
      (fun (x, y) site acc ->
        if x = a && y <> "<dyn>" then (y, site) :: acc else acc)
      edges []
    |> List.sort compare
  in
  let reported_cycles = Hashtbl.create 4 in
  List.iter
    (fun start ->
      let rec dfs path node =
        List.iter
          (fun (next, site) ->
            if next = start then begin
              let cycle = List.rev ((node, site) :: path) in
              let key =
                List.map fst cycle |> List.sort compare |> String.concat ","
              in
              if not (Hashtbl.mem reported_cycles key) then begin
                Hashtbl.replace reported_cycles key ();
                let sites = List.map snd cycle in
                let first = List.hd sites in
                let names = List.map fst cycle in
                let desc = String.concat " -> " (names @ [ List.hd names ]) in
                violations :=
                  Diag.v ~file:first.Diag.fr_file ~line:first.Diag.fr_line
                    ~rule ~chain:sites
                    ("lock acquisition order cycle " ^ desc
                   ^ " (ABBA deadlock): impose one global order")
                  :: !violations
              end
            end
            else if not (List.exists (fun (n, _) -> n = next) path) then
              dfs ((node, site) :: path) next)
          (succs node)
      in
      dfs [] start)
    nodes;
  List.rev !violations
