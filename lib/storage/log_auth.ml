module Hmac = Treaty_crypto.Hmac
module Wire = Treaty_util.Wire

let mac_size = 32

type t = {
  ssd : Ssd.t;
  sec : Sec.t;
  name : string;
  mac : Hmac.t;
  genesis : string;
  mutable next_counter : int;
  mutable last_mac : string;
  scratch : Buffer.t;
      (* An entry's payload, written under [lock] and sealed from here. *)
  lock : Treaty_sim.Sim.Resource.resource;
      (* Appends suspend on device I/O; the counter/MAC chain state must not
         interleave ("Clog is thread-safe; coordinators append independently
         their entries", §VII-B). *)
}

type replay_error =
  [ `Tampered of int
  | `Truncated
  | `Rolled_back of int * int  (* trusted, found *) ]

let pp_replay_error ppf = function
  | `Tampered c -> Format.fprintf ppf "MAC chain broken at counter %d" c
  | `Truncated -> Format.fprintf ppf "truncated entry"
  | `Rolled_back (trusted, found) ->
      Format.fprintf ppf "rollback detected: trusted counter %d, log ends at %d"
        trusted found

let create ssd sec ~name =
  let mac = Sec.mac_key sec name in
  let genesis = Hmac.mac mac ("genesis:" ^ name) in
  {
    ssd;
    sec;
    name;
    mac;
    genesis;
    scratch = Buffer.create 256;
    next_counter = 1;
    last_mac = genesis;
    lock = Treaty_sim.Sim.Resource.create (Ssd.sim ssd) ~capacity:1 ("log:" ^ name);
  }

let name t = t.name
let next_counter t = t.next_counter
let last_counter t = t.next_counter - 1

let chain_mac t ~counter ~payload ~prev =
  if Sec.auth t.sec then begin
    Treaty_tee.Enclave.charge_hash (Sec.enclave t.sec)
      ~bytes:(String.length payload + 8 + mac_size);
    let b = Buffer.create 16 in
    Wire.w64 b counter;
    Hmac.mac_parts t.mac [ Buffer.contents b; payload; prev ]
  end
  else String.make mac_size '\000'

(* An entry is [counter | len | stored | mac], appended as those parts
   rather than joined: a WAL entry carries whole values, and a joined copy
   of one is a fresh major-heap block. The payload is sealed straight out
   of the scratch it was written to, so no plaintext string of it exists. *)
let encode_entry t ~counter write =
  Buffer.clear t.scratch;
  write t.scratch;
  let len = Buffer.length t.scratch in
  let stored =
    Sec.protect_with t.sec ~len (fun b off -> Buffer.blit t.scratch 0 b off len)
  in
  let mac = chain_mac t ~counter ~payload:stored ~prev:t.last_mac in
  let header = Buffer.create 12 in
  Wire.w64 header counter;
  Wire.w32 header (String.length stored);
  ([ Buffer.contents header; stored; mac ], mac)

let append t write =
  Treaty_sim.Sim.Resource.acquire t.lock;
  Fun.protect ~finally:(fun () -> Treaty_sim.Sim.Resource.release t.lock)
  @@ fun () ->
  let counter = t.next_counter in
  let entry, mac = encode_entry t ~counter write in
  (* Advance the chain before the device write suspends, so a concurrent
     append queued on the lock sees consistent state either way. *)
  t.next_counter <- counter + 1;
  t.last_mac <- mac;
  ignore (Ssd.append_parts t.ssd ~enclave:(Sec.enclave t.sec) t.name entry);
  counter

let replay t ?trusted () =
  let enclave = Sec.enclave t.sec in
  let total = Ssd.size t.ssd t.name in
  (* One sequential read of the whole log, then parse in memory; syscall and
     page-cache costs were charged by the read. *)
  let raw = if total = 0 then "" else Ssd.read t.ssd ~enclave t.name ~off:0 ~len:total in
  let r = Wire.reader raw in
  let limit = Option.value trusted ~default:max_int in
  (* Every entry is parsed and verified; those within the trusted value are
     kept. [cut] is the kept prefix's last counter, end offset and MAC. *)
  let rec go acc prev_mac expected_counter cut =
    if Wire.at_end r then Ok (List.rev acc, expected_counter - 1, cut)
    else
      match
        let counter = Wire.r64 r in
        let len = Wire.r32 r in
        let stored = Wire.rbytes r len in
        let mac = Wire.rbytes r mac_size in
        (counter, stored, mac)
      with
      | exception Wire.Malformed _ -> Error `Truncated
      | counter, stored, mac ->
          (* Recovery issues one read syscall per entry and parses it — with
             small entries this dominates (Table I: "we have more syscalls
             ... more decryption calls"). *)
          Treaty_tee.Enclave.syscall enclave
            ~bytes:(String.length stored + 12 + mac_size) ();
          Treaty_tee.Enclave.compute_untrusted enclave 800;
          if counter <> expected_counter then Error (`Tampered expected_counter)
          else begin
            let expected_mac = chain_mac t ~counter ~payload:stored ~prev:prev_mac in
            if Sec.auth t.sec && not (Hmac.equal_tags mac expected_mac) then
              Error (`Tampered counter)
            else
              match Sec.unprotect t.sec stored with
              | exception Sec.Integrity_violation _ -> Error (`Tampered counter)
              | payload ->
                  let mac = if Sec.auth t.sec then mac else prev_mac in
                  if counter <= limit then
                    go ((counter, payload) :: acc) mac (counter + 1)
                      (counter, Wire.pos r, mac)
                  else go acc mac (counter + 1) cut
          end
  in
  match go [] t.genesis 1 (0, 0, t.genesis) with
  | Error e -> Error e
  | Ok (entries, last_counter, (kept, pos, mac)) -> (
      match trusted with
      | Some trusted when last_counter < trusted ->
          Error (`Rolled_back (trusted, last_counter))
      | _ ->
          if kept < last_counter then begin
            (* Entries past the trusted value were never stabilized: the
               crash happened before their counter round completed. Drop
               them — their transactions were never acknowledged — with one
               truncate at the end of the trusted prefix, so no crash can
               leave the log shorter than that prefix. *)
            Treaty_tee.Enclave.syscall enclave ();
            Ssd.truncate t.ssd t.name pos
          end;
          (* Appends continue the chain from the last kept entry. *)
          t.next_counter <- kept + 1;
          t.last_mac <- mac;
          Ok (entries, last_counter - kept))

let bytes_on_disk t = Ssd.size t.ssd t.name
