(** SHA-256 (FIPS 180-4).

    Implemented from scratch because no crypto package is available in this
    offline environment: the compression function is portable C99
    (crypto_stubs.c, built by the C compiler the native OCaml toolchain
    already links with), the buffering and padding are OCaml. Exposes an
    incremental interface whose intermediate state can be copied — {!Hmac}
    exploits this to precompute the keyed inner and outer states once per
    key. *)

type ctx

val digest_size : int
(** 32 bytes. *)

val init : unit -> ctx
val copy : ctx -> ctx
val update : ctx -> bytes -> int -> int -> unit
(** [update ctx buf off len] absorbs [len] bytes of [buf] starting at [off].
    Raises [Invalid_argument] if the region is not inside [buf]. *)

val update_string : ctx -> string -> unit
val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be reused afterwards. *)

val digest_bytes : bytes -> string
val digest_string : string -> string

val to_hex : string -> string
(** Lowercase hex of a raw digest (or any raw byte string). *)
