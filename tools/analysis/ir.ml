(* TreatyCheck's whole-program IR, built from the compiler's .cmt files.

   Each analyzed compilation unit contributes its top-level value bindings
   (including those inside nested structs) as *defs*, named canonically:

     Treaty_core.Node.handle_prepare
     Treaty_sched.Scheduler.Latch.arrive

   dune's module mangling (Treaty_core__Node) is rewritten to dotted form,
   so a reference through the library wrapper (Treaty_core.Node.x), through
   a local alias (module N = Treaty_core.Node; N.x) and from inside the
   defining unit itself (x) all resolve to the same canonical name. That
   resolution is what makes the passes *inter*procedural: an edge in the
   call graph exists for every resolved reference from one def's body to
   another def, whether applied or merely mentioned (passing a function as
   a value is conservatively a call).

   The IR keeps each def's typedtree body so passes can re-walk it with
   full type information (taint needs expression types), plus a resolver
   closure mapping any Path.t occurring in that unit to a canonical name. *)

type def = {
  d_name : string;  (* canonical, e.g. "Treaty_core.Node.handle_prepare" *)
  d_unit : string;  (* canonical unit, e.g. "Treaty_core.Node" *)
  d_file : string;  (* source path as recorded in the cmt *)
  d_line : int;
  d_body : Typedtree.expression;
  d_resolve : Path.t -> string;  (* value paths; "" when local/unresolved *)
  d_resolve_ty : Path.t -> string;  (* type paths; falls back to the raw name *)
}

type program = {
  defs : (string, def) Hashtbl.t;
  order : string list;  (* def names in load order, for determinism *)
  (* def -> resolved references (callee canonical name, line), in body order *)
  calls : (string, (string * int) list) Hashtbl.t;
  (* canonical names of record types with at least one mutable field *)
  mutable_types : (string, unit) Hashtbl.t;
}

let mangle_fix name =
  (* Treaty_core__Node -> Treaty_core.Node *)
  let b = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* Per-unit resolution environment: Ident.unique_name -> canonical name for
   module aliases, nested module definitions and unit-level values. *)
let make_resolvers locals =
  let rec canon p =
    match p with
    | Path.Pident id -> (
        match Hashtbl.find_opt locals (Ident.unique_name id) with
        | Some n -> n
        | None -> if Ident.global id then mangle_fix (Ident.name id) else "")
    | Path.Pdot (p, s) -> (
        match canon p with "" -> "" | base -> base ^ "." ^ s)
    | _ -> ""
  in
  let rec canon_ty p =
    (* Type constructor paths: predef heads (bytes, array, ...) are neither
       local nor global idents, so fall back to the raw name. *)
    match p with
    | Path.Pident id -> (
        match Hashtbl.find_opt locals (Ident.unique_name id) with
        | Some n -> n
        | None -> mangle_fix (Ident.name id))
    | Path.Pdot (p, s) -> (
        match canon_ty p with "" -> s | base -> base ^ "." ^ s)
    | _ -> ""
  in
  (canon, canon_ty)

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

(* --- def collection ------------------------------------------------------ *)

type unit_input = {
  ui_name : string;  (* canonical unit name *)
  ui_file : string;
  ui_str : Typedtree.structure;
}

let load_unit prog ui =
  let locals = Hashtbl.create 64 in
  let canon, canon_ty = make_resolvers locals in
  let order = ref [] in
  let add_def name line body =
    let d =
      {
        d_name = name;
        d_unit = ui.ui_name;
        d_file = ui.ui_file;
        d_line = line;
        d_body = body;
        d_resolve = canon;
        d_resolve_ty = canon_ty;
      }
    in
    Hashtbl.replace prog.defs name d;
    order := name :: !order
  in
  let rec unwrap (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_constraint (me, _, _, _) -> unwrap me
    | d -> d
  in
  let rec collect prefix (str : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                let ids = Typedtree.pat_bound_idents vb.vb_pat in
                List.iter
                  (fun id ->
                    let name = prefix ^ "." ^ Ident.name id in
                    Hashtbl.replace locals (Ident.unique_name id) name;
                    add_def name (line_of vb.vb_loc) vb.vb_expr)
                  ids)
              vbs
        | Tstr_module mb -> collect_module prefix mb
        | Tstr_recmodule mbs -> List.iter (collect_module prefix) mbs
        | Tstr_type (_, decls) ->
            List.iter
              (fun (td : Typedtree.type_declaration) ->
                let name = prefix ^ "." ^ Ident.name td.typ_id in
                (* Same-unit mentions of the type are Pidents; register them
                   so type_head agrees with cross-unit resolution. *)
                Hashtbl.replace locals (Ident.unique_name td.typ_id) name;
                match td.typ_kind with
                | Ttype_record lds
                  when List.exists
                         (fun (ld : Typedtree.label_declaration) ->
                           ld.ld_mutable = Mutable)
                         lds ->
                    Hashtbl.replace prog.mutable_types name ()
                | _ -> ())
              decls
        | _ -> ())
      str.str_items
  and collect_module prefix (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | None -> ()
    | Some id -> (
        let name = prefix ^ "." ^ Ident.name id in
        match unwrap mb.mb_expr with
        | Tmod_ident (p, _) ->
            (* module X = Some.Path — an alias: resolve through it. *)
            let target = canon p in
            Hashtbl.replace locals (Ident.unique_name id)
              (if target = "" then name else target)
        | Tmod_structure str ->
            Hashtbl.replace locals (Ident.unique_name id) name;
            collect name str
        | _ -> Hashtbl.replace locals (Ident.unique_name id) name)
  in
  collect ui.ui_name ui.ui_str;
  (* Reference collection: every resolved value mention, in body order. *)
  List.iter
    (fun name ->
      let d = Hashtbl.find prog.defs name in
      let refs = ref [] in
      let open Tast_iterator in
      let super = default_iterator in
      let expr self (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_ident (p, _, _) ->
            let c = canon p in
            if c <> "" then refs := (c, line_of e.exp_loc) :: !refs
        | _ -> ());
        super.expr self e
      in
      let it = { super with expr } in
      it.expr it d.d_body;
      Hashtbl.replace prog.calls name (List.rev !refs))
    (List.rev !order);
  List.rev !order

(* --- cmt loading --------------------------------------------------------- *)

let read_cmt_unit path =
  let cmt = Cmt_format.read_cmt path in
  match (cmt.cmt_annots, cmt.cmt_sourcefile) with
  | _, Some src when Filename.check_suffix src "-gen" ->
      None (* dune's generated library wrapper module *)
  | Cmt_format.Implementation str, src ->
      Some
        {
          ui_name = mangle_fix cmt.cmt_modname;
          ui_file = (match src with Some s -> s | None -> path);
          ui_str = str;
        }
  | _ -> None

let empty_program () =
  {
    defs = Hashtbl.create 512;
    order = [];
    calls = Hashtbl.create 512;
    mutable_types = Hashtbl.create 32;
  }

let load_units uis =
  let prog = empty_program () in
  let order = List.concat_map (fun ui -> load_unit prog ui) uis in
  { prog with order }

(* [paths] are .cmt files or directories to scan recursively (dune keeps
   cmts under .objs/, so hidden directories are descended into). *)
let load_paths paths =
  let files =
    List.concat_map
      (fun p -> Syntactic.gather ~suffix:".cmt" ~into_hidden:true [] p)
      paths
    |> List.sort_uniq compare
  in
  let uis = List.filter_map read_cmt_unit files in
  (load_units uis, List.length uis)

(* --- shared helpers for the passes --------------------------------------- *)

let calls_of prog name =
  match Hashtbl.find_opt prog.calls name with Some l -> l | None -> []

(* The canonical head of a type expression, "" when not a constructor. *)
let type_head (d : def) (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> d.d_resolve_ty p
  | _ -> ""

let immediate_types =
  [ "int"; "bool"; "unit"; "char"; "float"; "int32"; "int64"; "nativeint";
    "Stdlib.Int32.t"; "Stdlib.Int64.t" ]

(* Can a value of this type carry secret bytes? Immediates cannot. *)
let could_carry_secret (d : def) (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      not (List.mem (d.d_resolve_ty p) immediate_types)
  | _ -> true

(* Parameter idents of a def body: descend the curried Texp_function chain,
   binding both the function parameter and any pattern-bound idents of its
   cases to the same parameter index. Returns (param_index, ident) pairs
   and the innermost bodies. *)
let params_of_body body =
  let binds = ref [] in
  let rec go i (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { param; cases; _ } ->
        binds := (i, param) :: !binds;
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            List.iter
              (fun id -> binds := (i, id) :: !binds)
              (Typedtree.pat_bound_idents c.c_lhs);
            match cases with [ _ ] -> go (i + 1) c.c_rhs | _ -> ())
          cases
    | _ -> ()
  in
  go 0 body;
  List.rev !binds
