(** SHA-256 (FIPS 180-4).

    Implemented from scratch because no crypto package is available in this
    offline environment: the compression function is C (crypto_stubs.c,
    built by the C compiler the native OCaml toolchain already links with),
    the buffering and padding are OCaml. The C side has two compression
    kernels: portable C99, and on x86-64 one on the SHA extensions
    (SHA-NI). The program picks one once, from CPUID, when it loads; both
    give the same digests. Exposes an incremental interface whose
    intermediate state can be copied — {!Hmac} exploits this to precompute
    the keyed inner and outer states once per key. *)

type ctx

val digest_size : int
(** 32 bytes. *)

val init : unit -> ctx
val copy : ctx -> ctx

val copy_into : ctx -> ctx -> unit
(** [copy_into src dst] makes [dst] a copy of [src] without allocating. *)

val update : ctx -> bytes -> int -> int -> unit
(** [update ctx buf off len] absorbs [len] bytes of [buf] starting at [off].
    Raises [Invalid_argument] if the region is not inside [buf]. *)

val update_string : ctx -> string -> unit
val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be reused afterwards
    (except as the target of {!copy_into}). *)

val finalize_into : ctx -> bytes -> int -> unit
(** [finalize_into ctx dst off] writes the 32-byte digest to
    [dst.[off .. off+32)] without allocating; otherwise as {!finalize}.
    Raises [Invalid_argument] if that region is not inside [dst]. *)

val digest_string : string -> string

val to_hex : string -> string
(** Lowercase hex of a raw digest (or any raw byte string). *)

val kernel : string
(** Name of the compression kernel every digest in this process uses:
    ["sha-ni"] or ["portable"]. Chosen once from CPUID when the program
    loads; nothing can set it. *)

(** The compression kernels by name, so tests can check each one against a
    reference on every host, not only the one {!kernel} picked. *)
module Kernel : sig
  type t = Portable | Sha_ni

  val name : t -> string

  val available : t -> bool
  (** [Portable] always; [Sha_ni] when this CPU has the SHA extensions,
      SSSE3 and SSE4.1 (so it is the kernel {!kernel} names). *)

  val compress : t -> state:bytes -> bytes -> int -> int -> unit
  (** [compress k ~state src off nblocks] absorbs [nblocks] whole 64-byte
      blocks of [src] from [off] into [state]: the 8 state words,
      big-endian, 32 bytes. Raises [Invalid_argument] if [state] is not 32
      bytes, the blocks are not inside [src], or [k] is not available. *)
end
