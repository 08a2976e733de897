(* What the interprocedural passes look for, as data.

   Keeping the source/sink/entry tables here (and letting the self-test
   inject its own over hermetic synthetic units) keeps the pass engines
   free of Treaty-specific names. All names are canonical (Ir). *)

type t = {
  (* taint pass *)
  sources : string -> bool;  (* calls whose result is secret *)
  declassifiers : string -> bool;  (* consume taint safely (sealing, MACs) *)
  sinks : string -> string option;  (* host-visible sinks, with a label *)
  secret_types : string list;  (* types whose every value is secret *)
  taint_skip_unit : string -> bool;  (* the trust kernel itself *)
  (* determinism pass *)
  nondet_leaf : string -> string option;
  entry : Ir.def -> bool;
  (* locks pass *)
  lock_acquire : string -> bool;
  lock_release : string -> bool;
}

let prefixed p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let production =
  let sources name =
    (prefixed "Treaty_crypto.Keys." name
    && name <> "Treaty_crypto.Keys.verify_client_token")
    || prefixed "Treaty_crypto.Chacha20." name
  in
  let declassifiers name =
    (* Sealing, MACs and hashes consume key material and plaintext; their
       outputs are safe for the host to see. Taint registration itself is
       the runtime counterpart of this pass, not a leak. *)
    prefixed "Treaty_crypto.Aead." name
    || prefixed "Treaty_crypto.Hmac." name
    || prefixed "Treaty_crypto.Sha256." name
    || prefixed "Treaty_crypto.Taint." name
  in
  let sinks name =
    if name = "Treaty_netsim.Net.send" then Some "Net.send (untrusted wire)"
    else if name = "Treaty_netsim.Net.replay" then Some "Net.replay (untrusted wire)"
    else if name = "Treaty_storage.Ssd.append" then
      Some "Ssd.append (untrusted host storage)"
    else if
      (prefixed "Stdlib.Printf." name || prefixed "Stdlib.Format." name)
      && (let base =
            match String.rindex_opt name '.' with
            | Some i -> String.sub name (i + 1) (String.length name - i - 1)
            | None -> name
          in
          (* Only the printing entry points: sprintf/asprintf build strings
             in enclave memory, and anything they build stays tainted. *)
          List.mem base [ "printf"; "eprintf"; "fprintf"; "ifprintf" ])
    then Some (name ^ " (host-visible console/format output)")
    else if
      prefixed "Stdlib.print_" name
      || prefixed "Stdlib.prerr_" name
      || prefixed "Stdlib.output_" name
    then Some (name ^ " (host-visible console output)")
    else if prefixed "Treaty_obs." name then
      Some (name ^ " (observability export, host-visible)")
    else None
  in
  let nondet_leaf name =
    if prefixed "Stdlib.Random." name || prefixed "Random." name then
      Some (name ^ ": ambient PRNG breaks seeded reproducibility")
    else if name = "Unix.gettimeofday" then
      Some "Unix.gettimeofday: wall-clock read; use Sim.now"
    else if name = "Stdlib.Sys.time" then
      Some "Sys.time: host CPU clock; use Sim.now"
    else if
      name = "Stdlib.Hashtbl.hash"
      || name = "Stdlib.Hashtbl.seeded_hash"
      || name = "Stdlib.Hashtbl.hash_param"
    then Some (name ^ ": varies across runtimes; use Treaty_util.Fnv.hash")
    else if name = "Stdlib.Obj.magic" then
      Some "Obj.magic defeats the type system"
    else None
  in
  let entry_units =
    [ "Treaty_core.Node"; "Treaty_sched.Scheduler"; "Treaty_sim.Sim";
      "Treaty_chaos.Chaos"; "Treaty_chaos.Schedule" ]
  in
  let entry (d : Ir.def) =
    List.mem d.d_unit entry_units
    ||
    (* protocol handlers wherever they live (also how fixtures opt in) *)
    let base =
      match String.rindex_opt d.d_name '.' with
      | Some i -> String.sub d.d_name (i + 1) (String.length d.d_name - i - 1)
      | None -> d.d_name
    in
    prefixed "handle_" base
  in
  {
    sources;
    declassifiers;
    sinks;
    secret_types = [ "Treaty_crypto.Aead.key"; "Treaty_crypto.Keys.master" ];
    taint_skip_unit = (fun u -> prefixed "Treaty_crypto." u);
    nondet_leaf;
    entry;
    lock_acquire = (fun n -> n = "Treaty_core.Lock_table.acquire");
    lock_release =
      (fun n ->
        n = "Treaty_core.Lock_table.release_all"
        || n = "Treaty_core.Lock_table.txn_end");
  }
