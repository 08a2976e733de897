(* The per-file syntactic rule engine: treatycheck's `syntactic` pass.

   This is the Parsetree half of TreatyCheck: zone rules that are purely
   about *which module is mentioned where* (trust zones, determinism bans,
   protocol hygiene) and need no types or cross-module resolution. The
   interprocedural passes (Ir/Taint/Determinism/Locks) pick up where these
   stop: a violation laundered through a helper function is invisible here
   and caught there.

   The rules cover library code only: a source outside a lib/ tree (the
   test suite, benches, tools) is parsed but gets no rule.

   Rules:

   - crypto-primitive: the cipher/MAC primitives (Chacha20, Hmac) may only
     be touched inside lib/crypto; everything else goes through Aead/Keys.
   - untrusted-zone: code modelling the untrusted world (lib/netsim,
     lib/memalloc, lib/storage/ssd.ml) must never reference Keys or Aead —
     key material and sealing live on the enclave side of the boundary.
   - hw-counter: Hw_counter (the raw SGX monotonic counter) is private to
     lib/tee; the rest of the tree uses Enclave / the ROTE protocol.
   - obs-zone: the observability layer (lib/obs) watches the protocol, it
     does not participate in it — no key material (Keys), no sealing
     (Aead).
   - cache-zone: the verified block cache (lib/storage/block_cache.ml)
     holds decrypted, already-verified SSTable blocks in enclave memory;
     no Ssd (plaintext back to the untrusted disk) and no Net (plaintext
     on the wire).
   - wire-zone: the RPC layer (lib/rpc) encodes and decodes through
     byte-region cursors over packet buffers; String.sub and ( ^ ) there
     reintroduce the per-message copy-and-concat the zero-copy path exists
     to eliminate.
   - foreign-zone: [external] declarations (C stubs, runtime primitives)
     are allowed only in lib/crypto, whose native kernels are validated by
     OCaml wrappers before any call crosses into C. Anywhere else an
     external is an unchecked escape from the type system and from the
     simulator's determinism and trust-zone rules.
   - nondeterminism: ambient sources of nondeterminism (Random,
     Unix.gettimeofday, Sys.time, Hashtbl.hash, Obj.magic) break the
     seeded-simulation reproducibility contract.
   - wildcard-match: protocol decode paths (txn_wire.ml, node.ml,
     client.ml, counter_client.ml) must match exhaustively — a wildcard
     arm silently swallows new message kinds and status codes.
   - partial-failure: library code must return typed errors; failwith and
     assert false turn protocol failures into process aborts. *)

type zone = Crypto | Tee | Untrusted | Obs | Other

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let in_library path =
  String.starts_with ~prefix:"lib/" path || contains path "/lib/"

let zone_of path =
  if contains path "lib/crypto/" then Crypto
  else if contains path "lib/tee/" then Tee
  else if
    contains path "lib/netsim/" || contains path "lib/memalloc/"
    || String.ends_with ~suffix:"lib/storage/ssd.ml" path
  then Untrusted
  else if contains path "lib/obs/" then Obs
  else Other

(* --- the rule engine ----------------------------------------------------- *)

let lint ~path structure =
  let zone = zone_of path in
  let base = Filename.basename path in
  let protocol_file =
    List.mem base [ "txn_wire.ml"; "node.ml"; "client.ml"; "counter_client.ml" ]
  in
  let cache_file = contains path "lib/storage/" && contains base "block_cache" in
  let wire_file = contains path "lib/rpc/" in
  let out = ref [] in
  let report (loc : Location.t) rule message =
    out :=
      Diag.v ~file:path ~line:loc.loc_start.Lexing.pos_lnum ~rule message
      :: !out
  in
  (* Module names banned in this file, by zone. *)
  let banned_modules =
    [ ( "Random",
        ( "nondeterminism",
          "ambient PRNG breaks seeded reproducibility; use Treaty_sim.Rng" ) )
    ]
    @ (match zone with
      | Crypto -> []
      | _ ->
          [ ( "Chacha20",
              ( "crypto-primitive",
                "cipher primitive is private to lib/crypto; use Aead" ) );
            ( "Hmac",
              ( "crypto-primitive",
                "MAC primitive is private to lib/crypto; use Aead/Keys" ) )
          ])
    @ (match zone with
      | Tee -> []
      | _ ->
          [ ( "Hw_counter",
              ( "hw-counter",
                "raw SGX counter is private to lib/tee; use Enclave" ) )
          ])
    @ (match zone with
      | Obs ->
          [ ( "Keys",
              ( "obs-zone",
                "the observability layer must not handle key material" ) );
            ( "Aead",
              ( "obs-zone",
                "the observability layer must not seal or open data" ) )
          ]
      | _ -> [])
    @ (if cache_file then
         [ ( "Ssd",
             ( "cache-zone",
               "the block cache holds decrypted blocks; plaintext must \
                never flow back to the untrusted SSD" ) );
           ( "Net",
             ( "cache-zone",
               "the block cache holds decrypted blocks; plaintext must \
                never reach the network" ) )
         ]
       else [])
    @
    match zone with
    | Untrusted ->
        [ ( "Keys",
            ( "untrusted-zone",
              "untrusted code (netsim/ssd/memalloc) must not handle key \
               material" ) );
          ( "Aead",
            ( "untrusted-zone",
              "untrusted code (netsim/ssd/memalloc) must not seal or open \
               data" ) )
        ]
    | _ -> []
  in
  let check_component loc name =
    match List.assoc_opt name banned_modules with
    | Some (rule, msg) -> report loc rule (name ^ ": " ^ msg)
    | None -> ()
  in
  (* [value] marks a value path (last component is the value, not a module). *)
  let check_modules loc lid ~value =
    let comps = Longident.flatten lid in
    let n = List.length comps in
    List.iteri
      (fun i c -> if (not value) || i < n - 1 then check_component loc c)
      comps
  in
  let strip_stdlib = function "Stdlib" :: rest -> rest | l -> l in
  let check_value loc lid =
    match strip_stdlib (Longident.flatten lid) with
    | [ "String"; "sub" ] when wire_file ->
        report loc "wire-zone"
          "String.sub in the wire hot path allocates a copy per message; \
           slice byte regions of the packet buffer (Bytes.sub_string / blit)"
    | [ "^" ] when wire_file ->
        report loc "wire-zone"
          "string concatenation in the wire hot path; write through a \
           cursor into the packet buffer instead"
    | [ "Unix"; "gettimeofday" ] ->
        report loc "nondeterminism"
          "Unix.gettimeofday: wall-clock read; simulated time comes from \
           Sim.now"
    | [ "Sys"; "time" ] ->
        report loc "nondeterminism"
          "Sys.time: host CPU clock; simulated time comes from Sim.now"
    | [ "Hashtbl"; "hash" ] ->
        report loc "nondeterminism"
          "Hashtbl.hash varies across runtimes; use Treaty_util.Fnv.hash"
    | [ "Obj"; "magic" ] ->
        report loc "nondeterminism" "Obj.magic defeats the type system"
    | [ "failwith" ] ->
        report loc "partial-failure"
          "failwith: library code returns typed errors, it does not raise \
           Failure"
    | _ -> ()
  in
  let open Ast_iterator in
  let super = default_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        check_modules loc txt ~value:true;
        check_value loc txt
    | Pexp_construct ({ txt; loc }, _) -> check_modules loc txt ~value:true
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      ->
        report e.pexp_loc "partial-failure"
          "assert false: encode the invariant in types or return an error"
    | (Pexp_match (_, cases) | Pexp_function cases) when protocol_file ->
        List.iter
          (fun (c : Parsetree.case) ->
            match c.pc_lhs.ppat_desc with
            | Ppat_any ->
                report c.pc_lhs.ppat_loc "wildcard-match"
                  "wildcard arm in a protocol match silently swallows new \
                   message kinds; match exhaustively"
            | _ -> ())
          cases
    | _ -> ());
    super.expr self e
  in
  let pat self (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_construct ({ txt; loc }, _) -> check_modules loc txt ~value:true
    | _ -> ());
    super.pat self p
  in
  let typ self (t : Parsetree.core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; loc }, _) -> check_modules loc txt ~value:true
    | _ -> ());
    super.typ self t
  in
  let module_expr self (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> check_modules loc txt ~value:false
    | _ -> ());
    super.module_expr self m
  in
  let value_description self (vd : Parsetree.value_description) =
    if vd.pval_prim <> [] && zone <> Crypto then
      report vd.pval_loc "foreign-zone"
        ("external " ^ vd.pval_name.txt
       ^ ": foreign declarations are private to lib/crypto, where OCaml \
          wrappers check every region before calling into C");
    super.value_description self vd
  in
  let it = { super with expr; pat; typ; module_expr; value_description } in
  if in_library path then it.structure it structure;
  List.rev !out

(* --- parsing ------------------------------------------------------------- *)

let parse_source ~path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

let lint_file path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match parse_source ~path src with
  | structure -> lint ~path structure
  | exception e ->
      Printf.eprintf "%s: parse error\n" path;
      (try Location.report_exception Format.err_formatter e
       with _ -> Printf.eprintf "%s\n" (Printexc.to_string e));
      exit 2

(* [into_hidden] descends into dot-directories — needed when gathering .cmt
   files, which dune keeps under .objs/. *)
let rec gather ?(suffix = ".ml") ?(into_hidden = false) acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left
         (fun acc name ->
           if
             String.length name = 0 || name = "_build"
             || (name.[0] = '.' && not into_hidden)
           then acc
           else gather ~suffix ~into_hidden acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path suffix then path :: acc
  else acc

(* --- self-test ----------------------------------------------------------- *)

(* (synthetic filename, source, rules expected to fire). Filenames steer the
   zone logic; the sources never touch the real tree. *)
let self_tests =
  [ ("lib/core/node.ml", "let f x = match x with 0 -> () | _ -> ()",
     [ "wildcard-match" ]);
    ("lib/counter/counter_client.ml", "let f = function Some x -> x | _ -> 0",
     [ "wildcard-match" ]);
    ("lib/core/txn_wire.ml", "let f x = match x with 0 -> () | _ -> ()",
     [ "wildcard-match" ]);
    ("lib/core/cluster.ml", "let f x = match x with 0 -> () | _ -> ()", []);
    ("lib/storage/engine.ml", "let x = Hmac.mac k m", [ "crypto-primitive" ]);
    ("lib/storage/engine.ml", "let x = Treaty_crypto.Chacha20.encrypt",
     [ "crypto-primitive" ]);
    ("lib/storage/engine.ml", "module H = Treaty_crypto.Hmac",
     [ "crypto-primitive" ]);
    ("lib/crypto/keys.ml", "let x = Hmac.mac k m", []);
    ("lib/netsim/net.ml", "let x = Keys.master_of_secret s",
     [ "untrusted-zone" ]);
    ("lib/storage/ssd.ml", "let x = Aead.seal", [ "untrusted-zone" ]);
    ("lib/memalloc/mempool.ml", "module K = Treaty_crypto.Keys",
     [ "untrusted-zone" ]);
    ("lib/storage/engine.ml", "let x = Keys.client_token m", []);
    ("lib/storage/engine.ml", "let x = Treaty_tee.Hw_counter.read c",
     [ "hw-counter" ]);
    ("lib/tee/enclave.ml", "let x = Hw_counter.read c", []);
    ("lib/obs/trace.ml", "let k = Keys.master_of_secret s", [ "obs-zone" ]);
    ("lib/obs/metrics.ml", "let x = Treaty_crypto.Aead.seal", [ "obs-zone" ]);
    ("lib/obs/trace.ml", "let c = Hw_counter.read c", [ "hw-counter" ]);
    ("lib/obs/trace.ml", "let t = Unix.gettimeofday ()",
     [ "nondeterminism" ]);
    ("lib/obs/trace.ml", "let x = Metrics.incr \"a\"", []);
    ("lib/core/node.ml", "let x = Random.int 5", [ "nondeterminism" ]);
    ("lib/core/node.ml", "open Random", [ "nondeterminism" ]);
    ("lib/core/node.ml", "let x = Unix.gettimeofday ()",
     [ "nondeterminism" ]);
    ("lib/core/node.ml", "let x = Sys.time ()", [ "nondeterminism" ]);
    ("lib/core/node.ml", "let h = Hashtbl.hash key", [ "nondeterminism" ]);
    ("lib/core/node.ml", "let h = Stdlib.Hashtbl.hash key",
     [ "nondeterminism" ]);
    ("lib/core/node.ml", "let t = Hashtbl.create 8", []);
    ("lib/core/node.ml", "let x = Obj.magic 3", [ "nondeterminism" ]);
    ("lib/core/node.ml", "let x () = failwith \"boom\"",
     [ "partial-failure" ]);
    ("lib/core/node.ml", "let x () = assert false", [ "partial-failure" ]);
    ("lib/core/node.ml", "let x b = assert b", []);
    ("lib/core/node.ml", "let x = try f () with _ -> 0", []);
    ("lib/core/node.ml", "let x = 1", []);
    ("lib/storage/block_cache.ml", "let spill ssd e v = Ssd.append ssd e v",
     [ "cache-zone" ]);
    ("lib/storage/block_cache.ml",
     "let leak net v = Treaty_netsim.Net.send net v", [ "cache-zone" ]);
    ("lib/storage/block_cache.ml", "let t = Hashtbl.create 8", []);
    ("lib/storage/engine.ml", "let x = Ssd.read ssd", []);
    ("lib/rpc/secure_msg.ml", "let x = String.sub s 0 4", [ "wire-zone" ]);
    ("lib/rpc/secure_msg.ml", "let x = Stdlib.String.sub s 0 4",
     [ "wire-zone" ]);
    ("lib/rpc/erpc.ml", "let x = a ^ b", [ "wire-zone" ]);
    ("lib/rpc/erpc.ml", "let x = Bytes.sub_string b 0 4", []);
    ("lib/rpc/transport.ml", "let x = a ^ b", [ "wire-zone" ]);
    ("lib/core/node.ml", "let x = String.sub s 0 4", []);
    ("lib/crypto/chacha20.ml",
     "external xor : bytes -> int -> unit = \"c_xor\" [@@noalloc]", []);
    ("lib/storage/sstable.ml", "external crc : string -> int = \"c_crc\"",
     [ "foreign-zone" ]);
    ("lib/core/node.ml",
     "module F : sig external f : int -> int = \"c_f\" end = struct \
      external f : int -> int = \"c_f\" end",
     [ "foreign-zone" ]);
    ("lib/core/node.ml", "module type S = sig val f : int -> int end", []);
    ("test/test_core.ml", "let h = Hashtbl.hash (Random.int 5)", [])
  ]

let run_self_test () =
  let failures = ref 0 in
  List.iteri
    (fun i (path, src, expected) ->
      let fired =
        lint ~path (parse_source ~path src)
        |> List.map (fun (v : Diag.violation) -> v.rule)
        |> List.sort_uniq compare
      in
      let expected = List.sort_uniq compare expected in
      if fired <> expected then begin
        incr failures;
        Printf.printf "self-test %d (%s): expected [%s], got [%s]\n  %s\n" i
          path
          (String.concat "; " expected)
          (String.concat "; " fired)
          src
      end)
    self_tests;
  if !failures = 0 then begin
    Printf.printf "treatycheck syntactic self-test: %d cases ok\n"
      (List.length self_tests);
    0
  end
  else begin
    Printf.printf "treatycheck syntactic self-test: %d failures\n" !failures;
    1
  end

(* Every rule this engine can emit: the driver's active-rule list when the
   syntactic pass runs. *)
let rules =
  [ "wildcard-match"; "crypto-primitive"; "untrusted-zone"; "hw-counter";
    "obs-zone"; "nondeterminism"; "partial-failure"; "cache-zone";
    "wire-zone"; "foreign-zone" ]
