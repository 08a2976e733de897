(** Treaty's secure message layout (§VII-A), sealed per packet.

    The paper puts a secure message on the wire as

    {v IV (12 B) | pad (4 B) | enc( metadata (80 B) | data ) | MAC (16 B) v}

    Metadata carries the coordinator node id, the transaction id
    (monotonically incremented at the coordinator) and the operation id —
    the unique triple that gives at-most-once execution — plus RPC plumbing
    (source node, handler kind, response flag, request id). Only metadata and
    data are encrypted; if the IV or MAC is altered the integrity check
    fails. Plain mode (the native baselines) sends the same metadata
    unencrypted with no IV/MAC.

    Every packet is a {!Burst}: the eRPC burst to one destination, sealed
    once. A one-message burst is the paper's layout with a version byte in
    front, the count where the pad was, and one length word:

    {v 0x02 | IV (12 B) | count = 1 (4 B) | len (4 B)
       | enc( metadata (80 B) | data ) | MAC (16 B) v} *)

type meta = {
  coord : int;  (** Coordinator node id (8 B on the wire). *)
  tx_seq : int;  (** Tx id, monotonic per coordinator (8 B). *)
  op_id : int;  (** Operation id, unique within the Tx (8 B). *)
  src : int;  (** Sending node. *)
  kind : int;  (** Request-handler selector. *)
  is_response : bool;
  req_id : int;  (** RPC-level id matching a response to its request. *)
}

val at_most_once_key : meta -> int * int * int
(** The (coord, tx, op) triple that must never execute twice. *)

type security = Plain | Secure of Treaty_crypto.Aead.key

(** The packet envelope: burst-level AEAD.

    A whole eRPC burst becomes ONE sealed packet —

    {v 0x02 | IV (12 B) | count (4 B) | len_i (4 B each)
       | enc( meta_0|data_0 | ... ) | MAC (16 B) v}

    — one IV, one ChaCha20 keystream pass and one HMAC per packet instead
    of per sub-message. The version byte, IV, count and the sub-message
    length table form the AAD of the packet-level AEAD: tampering with any
    framing length or body byte fails the single MAC and rejects the whole
    packet as [`Tampered]. Plain mode uses the same framing without IV/MAC.

    Encoding writes through a cursor into a caller-provided (mempool-backed)
    buffer and seals in place; decoding verifies once, decrypts in place
    and hands out per-message views. *)
module Burst : sig
  val version : int
  (** Leading packet byte: [2]. A packet that leads with anything else is
      malformed. *)

  val wire_size : security -> data_lens:int list -> int
  (** Exact packet size for a burst whose payloads have the given sizes. *)

  val encode_into :
    security ->
    iv_gen:Treaty_crypto.Aead.Iv_gen.t ->
    Bytes.t ->
    (meta * string) list ->
    int
  (** Frame, encrypt and MAC the burst into [buf] starting at offset 0
      (which must hold at least [wire_size] bytes); returns the bytes
      written. *)

  val decode :
    security ->
    string ->
    ((meta * string) list, [ `Tampered | `Malformed ]) result
  (** One verification and one decryption for the whole packet; [`Tampered]
      on any MAC failure (including a framing-length flip), [`Malformed] on
      structural damage (version byte, truncation). *)
end
