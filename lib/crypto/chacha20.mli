(** ChaCha20 stream cipher (RFC 8439).

    Used as the confidentiality half of the {!Aead} construction, written
    from scratch. The keystream kernel is portable C99 (crypto_stubs.c,
    built by the C compiler the native OCaml toolchain already links with);
    this module checks key, nonce and region sizes before every call into
    it, raising [Invalid_argument] on a bad one. *)

val key_size : int
(** 32 bytes. *)

val nonce_size : int
(** 12 bytes. *)

val xor : key:string -> nonce:string -> ?counter:int -> string -> string
(** [xor ~key ~nonce msg] encrypts (or, being an involution, decrypts) [msg]
    with the keystream starting at block [counter] (default 1, per RFC 8439
    AEAD usage). *)

val xor_into :
  key:string -> nonce:string -> ?counter:int -> Bytes.t -> off:int -> len:int -> unit
(** In-place variant: applies the keystream to [buf.[off .. off+len)] with no
    intermediate copies. One keystream pass over a whole packet region is how
    the burst-level wire path avoids a per-sub-message cipher setup. The
    32-bit block counter wraps to 0 after [0xffff_ffff]. Raises
    [Invalid_argument] on a key or nonce of the wrong size or a region
    outside [buf]. *)

val block : key:string -> nonce:string -> counter:int -> string
(** One raw 64-byte keystream block (exposed for tests against the RFC
    vectors). *)
