module Sim = Treaty_sim.Sim
module Erpc = Treaty_rpc.Erpc
module Enclave = Treaty_tee.Enclave
module Quote = Treaty_tee.Quote
module Wire = Treaty_util.Wire
module Aead = Treaty_crypto.Aead

let kind_attest = 120
let kind_client_auth = 121

type t = {
  rpc : Erpc.t;
  enclave : Enclave.t;
  master_secret : string;
  master : Treaty_crypto.Keys.master;
  expected_measurement : string;
  config_blob : string;
  las_keys : (int, string) Hashtbl.t;  (* node id -> LAS signing key *)
  mutable alive : bool;
}

let encode_quote (q : Quote.t) =
  let b = Buffer.create 128 in
  Wire.wstr b q.measurement;
  Wire.wstr b q.report_data;
  Wire.wstr b q.signature;
  Buffer.contents b

let decode_quote payload =
  let r = Wire.reader payload in
  let measurement = Wire.rstr r in
  let report_data = Wire.rstr r in
  let signature = Wire.rstr r in
  { Quote.measurement; report_data; signature }

(* Channel key for the provisioning response: both ends can derive it from
   the LAS signing key and the fresh nonce in the quote (RA-TLS stand-in). *)
let channel_key ~las_key ~nonce =
  Aead.key_of_string (Treaty_crypto.Sha256.digest_string (las_key ^ ":" ^ nonce))

(* Both handlers parse network bytes no MAC has vouched for: a request that
   does not parse gets the rejected reply (""), never an exception out of
   the CAS fiber. *)
let handle_attest t payload =
  if not t.alive then ""
  else
    match
      let r = Wire.reader payload in
      let node = Wire.r64 r in
      (node, decode_quote (Wire.rstr r))
    with
    | exception Wire.Malformed _ -> ""
    | node, quote -> (
        match Hashtbl.find_opt t.las_keys node with
        | None -> ""
        | Some las_key ->
            if
              not
                (Quote.verify ~las_key
                   ~expected_measurement:t.expected_measurement quote)
            then "" (* rejected: wrong code identity or forged signature *)
            else begin
              let b = Buffer.create 256 in
              Wire.wstr b t.master_secret;
              Wire.wstr b t.config_blob;
              let key = channel_key ~las_key ~nonce:quote.report_data in
              Enclave.charge_crypto t.enclave ~bytes:(Buffer.length b);
              (* The channel key is derived from this quote's nonce, so it
                 seals this one provision only and its first IV is fresh. *)
              let ivg =
                Aead.Iv_gen.create ~incarnation:0 ~node_id:(Erpc.node_id t.rpc)
              in
              Aead.seal_packed key ~iv:(Aead.Iv_gen.next ivg) (Buffer.contents b)
            end)

let handle_client_auth t payload =
  if not t.alive then ""
  else
    match Wire.r64 (Wire.reader payload) with
    | exception Wire.Malformed _ -> ""
    | client_id ->
        (* Client registration is assumed pre-authorized out of band; hand
           back the token the storage nodes will verify. *)
        Treaty_crypto.Keys.client_token t.master ~client_id

let bootstrap ~rpc ~enclave ~master_secret ~expected_measurement ~config_blob =
  (* The service provider verifies the CAS itself over IAS before trusting
     it with the master secret. *)
  let self_quote =
    Quote.sign ~las_key:Ias.platform_key
      ~measurement:(Enclave.measurement enclave)
      ~report_data:"cas-bootstrap"
  in
  if not
       (Ias.verify (Enclave.sim enclave)
          ~expected_measurement:(Enclave.measurement enclave)
          self_quote)
  then Error `Ias_rejected
  else begin
    let t =
      {
        rpc;
        enclave;
        master_secret;
        master = Treaty_crypto.Keys.master_of_secret master_secret;
        expected_measurement;
        config_blob;
        las_keys = Hashtbl.create 8;
        alive = true;
      }
    in
    Erpc.register rpc ~kind:kind_attest (fun _meta payload -> handle_attest t payload);
    Erpc.register rpc ~kind:kind_client_auth (fun _meta payload ->
        handle_client_auth t payload);
    Ok t
  end

let deploy_las t las =
  (* Modelled as verified over IAS at deployment time. *)
  Hashtbl.replace t.las_keys (Las.node_id las) (Las.signing_key las)

let master t = t.master
let node_id t = Erpc.node_id t.rpc
let register_client t ~client_id = Treaty_crypto.Keys.client_token t.master ~client_id

let shutdown t =
  t.alive <- false;
  Erpc.shutdown t.rpc

module Attest = struct
  type provision = { master_secret : string; config_blob : string }

  let run ~rpc ~enclave ~las ~cas_node =
    let nonce =
      Treaty_crypto.Sha256.digest_string
        (Printf.sprintf "nonce:%d:%d" (Erpc.node_id rpc)
           (Sim.now (Enclave.sim enclave)))
    in
    let quote = Las.quote las enclave ~report_data:nonce in
    let b = Buffer.create 256 in
    Wire.w64 b (Erpc.node_id rpc);
    Wire.wstr b (encode_quote quote);
    (* Attestation is a bootstrap-time handshake riding IAS-scale internet
       latencies, and at cluster sizes in the hundreds the CAS time-slices a
       whole burst of concurrent quote verifications — so it gets its own
       deadline, far above the data-path RPC timeout. *)
    match
      Erpc.call rpc ~dst:cas_node ~kind:kind_attest
        ~timeout_ns:2_000_000_000 (Buffer.contents b)
    with
    | Error (`Timeout | `Tampered) -> Error `Cas_unreachable
    | Ok "" -> Error `Rejected
    | Ok sealed -> (
        let key = channel_key ~las_key:(Las.signing_key las) ~nonce in
        Enclave.charge_crypto enclave ~bytes:(String.length sealed);
        match Aead.open_packed key sealed with
        | Error (`Mac_mismatch | `Truncated) -> Error `Rejected
        | Ok plain -> (
            match
              let r = Wire.reader plain in
              let master_secret = Wire.rstr r in
              let config_blob = Wire.rstr r in
              { master_secret; config_blob }
            with
            | p -> Ok p
            | exception Wire.Malformed _ -> Error `Rejected))
end
