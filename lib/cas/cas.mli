(** Configuration and Attestation Service (§VI).

    One CAS runs inside the datacenter: the service provider attests it once
    over IAS, then the CAS attests every Treaty instance through the per-node
    LAS (whose deployments it verified), supplying attested instances with
    the cluster secrets and configuration — network key, storage keys, node
    addresses. It also authenticates clients.

    The CAS is deliberately a single point of failure for *recovery* (not
    for running transactions): "in case CAS fails, crashed nodes cannot
    recover" — the recovery tests exercise exactly that.

    Transport: the CAS answers two RPC kinds on its endpoint. Provisioning
    responses are encrypted under a key derived from the LAS signing key and
    the nonce in the quote's report data, standing in for the RA-TLS channel
    a real deployment uses. *)

val kind_attest : int
val kind_client_auth : int

type t

val bootstrap :
  rpc:Treaty_rpc.Erpc.t ->
  enclave:Treaty_tee.Enclave.t ->
  master_secret:string ->
  expected_measurement:string ->
  config_blob:string ->
  (t, [ `Ias_rejected ]) result
(** Start the CAS: attest its own enclave over IAS (slow, once), then serve.
    [config_blob] is the opaque cluster configuration handed to provisioned
    nodes; [expected_measurement] is the Treaty code identity the CAS will
    accept. *)

val deploy_las : t -> Las.t -> unit
(** Verify a LAS deployment (over IAS) and record its signing key. *)

val master : t -> Treaty_crypto.Keys.master
val node_id : t -> int

val register_client : t -> client_id:int -> string
(** Out-of-band client registration; returns the client's auth token. *)

val shutdown : t -> unit
(** Kill the CAS by halting its enclave: its endpoint and both handlers go
    silent (tests: recovery must then fail). *)

(** Node-side helper: attest to the CAS and receive provisioned secrets. *)
module Attest : sig
  type provision = {
    master_secret : string;
    config_blob : string;
  }

  val run :
    rpc:Treaty_rpc.Erpc.t ->
    enclave:Treaty_tee.Enclave.t ->
    las:Las.t ->
    cas_node:int ->
    (provision, [ `Rejected | `Cas_unreachable ]) result
  (** Generate a fresh nonce, obtain a LAS-signed quote, send it to the CAS,
      decrypt the provisioning response. *)
end
