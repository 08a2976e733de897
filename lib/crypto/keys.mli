(** Key hierarchy for a Treaty deployment.

    The CAS provisions each attested node with key material derived from a
    cluster master secret (§VI, "the CAS ... supplies the instance with the
    necessary configuration, e.g., network key"). All derivations are
    domain-separated HKDF-style expansions over HMAC-SHA256. *)

type master

val master_of_secret : string -> master

val derive : master -> string -> string
(** [derive m label] is a 32-byte subkey bound to [label]. *)

val network_key : master -> Aead.key
(** Shared AEAD key for node<->node RPC traffic. *)

val storage_key : master -> node_id:int -> Aead.key
(** Per-node AEAD key for SSTable blocks and log payloads. *)

val client_token : master -> client_id:int -> string
(** Authentication token the CAS hands to a registered client. *)

val verify_client_token : master -> client_id:int -> token:string -> bool
(** Timing-safe check of a presented client token, so callers outside the
    crypto zone never touch the HMAC primitives directly. *)
