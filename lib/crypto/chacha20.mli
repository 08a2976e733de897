(** ChaCha20 stream cipher (RFC 8439).

    Used as the confidentiality half of the {!Aead} construction, written
    from scratch. The keystream is C (crypto_stubs.c, built by the C
    compiler the native OCaml toolchain already links with), with two
    kernels: portable C99, and on x86-64 one on AVX2 that makes eight
    blocks per iteration. The program picks one once, from CPUID, when it
    loads; both give the same bytes. This module checks key, nonce and
    region sizes before every call into C, raising [Invalid_argument] on a
    bad one. *)

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

val kernel : string
(** Name of the keystream kernel every call in this process uses: ["avx2"]
    or ["portable"]. Chosen once from CPUID when the program loads; nothing
    can set it. *)

(** The keystream kernels by name, so tests can check each one against a
    reference on every host, not only the one {!kernel} picked. *)
module Kernel : sig
  type t = Portable | Avx2

  val name : t -> string

  val available : t -> bool
  (** [Portable] always; [Avx2] when this CPU has AVX2 and the OS saves the
      AVX register state (so it is the kernel {!kernel} names). *)

  val xor_into :
    t ->
    key:string ->
    nonce:string ->
    ?counter:int ->
    Bytes.t ->
    off:int ->
    len:int ->
    unit
  (** {!xor_into} on kernel [t]. Raises [Invalid_argument] on the same bad
      calls, or if [t] is not available. *)
end
