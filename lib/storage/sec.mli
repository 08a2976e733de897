(** Per-node storage security context.

    Bundles the knobs that distinguish the paper's baselines — whether
    persistent data is authenticated (hashes/MACs) and whether it is
    encrypted — with the enclave that pays the corresponding simulated
    costs and the key material. All storage modules (logs, SSTables,
    MemTable values) protect and check data through this one interface, so
    a mode switch reconfigures the whole engine consistently:

    - DS-RocksDB / Native Treaty w/o Enc: [auth = false], [enc = None]
    - Treaty w/o Enc: [auth = true], [enc = None] (integrity, no secrecy)
    - Treaty w/ Enc: [auth = true], [enc = Some key] *)

exception Integrity_violation of string
(** Raised when an integrity or freshness check on untrusted data fails —
    the detection event Treaty's guarantees are about. *)

type t

val create :
  enclave:Treaty_tee.Enclave.t ->
  auth:bool ->
  enc:Treaty_crypto.Aead.key option ->
  unit ->
  t
(** Seals draw IVs from [enclave]'s generator
    ({!Treaty_tee.Enclave.iv_gen}), keyed by its incarnation, so a restarted
    node never repeats an IV under its storage key. *)

val enclave : t -> Treaty_tee.Enclave.t
val auth : t -> bool
val encrypted : t -> bool

val protect : t -> string -> string
(** Encrypt a value/block for untrusted memory or disk ([enc] mode), or pass
    it through. Charges simulated crypto time. *)

val protect_with : t -> len:int -> (Bytes.t -> int -> unit) -> string
(** {!protect} of the [len] bytes the callback writes at the offset it is
    given, built in the protected value's own buffer. *)

val unprotect : t -> string -> string
(** Inverse of {!protect}. Raises {!Integrity_violation} if the AEAD check
    fails. *)

val digest : t -> string -> string
(** 32-byte hash in [auth] mode (charged), [""] otherwise. *)

val check_digest : t -> what:string -> data:string -> expected:string -> unit
(** Raises {!Integrity_violation} naming [what] on mismatch. No-op when
    [auth] is off. *)

val mac_key : t -> string -> Treaty_crypto.Hmac.t
(** Keyed MAC context for a named log chain (derived per log). *)
