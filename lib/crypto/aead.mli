(** Authenticated encryption with associated data.

    ChaCha20 + HMAC-SHA256 in encrypt-then-MAC composition, with the wire
    sizes Treaty's message layout prescribes (§VII-A): a 12-byte IV and a
    16-byte (truncated) MAC. Tampering with the IV, the associated data, the
    ciphertext or the MAC makes {!open_} return [Error `Mac_mismatch].

    Every seal and open MACs the same transcript: [iv], the 32-bit
    little-endian length of the AAD, the AAD, the length of the
    ciphertext, the ciphertext. {!seal_packed} and {!open_packed} work on
    one buffer: the plaintext is copied in once, encrypted in place and
    MACed where it lies, and an open checks the tag over the packed string
    before it decrypts one copy of the ciphertext. *)

type key

val iv_size : int
(** 12 bytes. *)

val mac_size : int
(** 16 bytes. *)

val overhead : int
(** [iv_size + mac_size]: bytes added by {!seal_packed}. *)

val key_of_string : string -> key
(** Derive an AEAD key (independent cipher and MAC subkeys) from arbitrary
    key material. *)

val seal : key -> iv:string -> ?aad:string -> string -> string * string
(** [seal k ~iv ~aad pt] is [(ciphertext, mac)]. The IV must be unique per
    key; use {!Iv_gen}. *)

val open_ :
  key ->
  iv:string ->
  ?aad:string ->
  mac:string ->
  string ->
  (string, [ `Mac_mismatch ]) result

val seal_packed : key -> iv:string -> ?aad:string -> string -> string
(** [iv || ciphertext || mac] as one string: the same bytes as
    [iv ^ ct ^ mac] of {!seal}, built in one allocation. *)

val seal_packed_with :
  key -> iv:string -> ?aad:string -> len:int -> (Bytes.t -> int -> unit) -> string
(** {!seal_packed} of [len] plaintext bytes that the callback writes at the
    offset it is given, straight into the packed buffer: no plaintext
    string is built (and none is registered with {!Taint}). *)

val open_packed :
  key -> ?aad:string -> string -> (string, [ `Mac_mismatch | `Truncated ]) result
(** [Error `Truncated] on a string shorter than {!overhead}; otherwise
    [Error `Mac_mismatch] unless the tag verifies, which is checked before
    any byte is decrypted. *)

(** {2 In-place region operations}

    The zero-copy wire path seals and opens whole packet regions inside a
    mempool-backed buffer: one keystream pass and one MAC per packet, no
    intermediate strings. The tag transcript matches {!seal}/{!open_}
    exactly, so region-sealed and string-sealed messages interverify. Each
    raises [Invalid_argument] on an IV that is not {!iv_size} bytes or a
    region outside the buffer, before any byte of the buffer is read. *)

val xor_region : key -> iv:string -> Bytes.t -> off:int -> len:int -> unit
(** Encrypt (or decrypt — it is an involution) [buf.[off .. off+len)] in
    place. *)

val tag_region :
  key ->
  iv:string ->
  Bytes.t ->
  aad_off:int ->
  aad_len:int ->
  ct_off:int ->
  ct_len:int ->
  mac_off:int ->
  unit
(** Write the 16-byte truncated tag over [iv], the AAD region and the
    ciphertext region of one buffer (length-framed like {!seal}) to
    [buf.[mac_off .. mac_off+16)]. Allocates nothing. *)

val check_region :
  key ->
  iv:string ->
  Bytes.t ->
  aad_off:int ->
  aad_len:int ->
  ct_off:int ->
  ct_len:int ->
  mac_off:int ->
  bool
(** Timing-safe verification of {!tag_region} against the tag at
    [buf.[mac_off .. mac_off+16)]. Allocates nothing. *)

(** Deterministic IV generator: a per-key 96-bit counter, never reused.

    An IV is the 4-byte node id followed by a 64-bit counter. A key can
    outlive the endpoint that seals with it: the network key, a node's
    storage key and its fuse key survive a crash and restart, and a client
    id can connect again. So every build of an endpoint under one id gets
    its own {i incarnation}, and incarnation [i] counts from [i lsl 40]:
    the incarnations' IV ranges never overlap. *)
module Iv_gen : sig
  type t

  exception Exhausted
  (** Raised by {!next} and {!next_into} once an incarnation has handed out
      its [2^40 - 1] IVs. The counter never wraps into the next
      incarnation's range. *)

  val create : incarnation:int -> node_id:int -> t
  (** Node id is mixed into the IV so distinct nodes sharing a network key
      never collide; [incarnation] (from 0) keeps the rebuilt endpoints of
      one node id apart. Raises [Invalid_argument] unless
      [0 <= incarnation < 2^22]. *)

  val next : t -> string
  (** A fresh, unique 12-byte IV. *)

  val next_into : t -> Bytes.t -> int -> unit
  (** [next_into t buf off] writes the next IV at [buf.[off .. off+12)]
      without allocating — the hot path stamps IVs directly into the packet
      buffer. *)
end
