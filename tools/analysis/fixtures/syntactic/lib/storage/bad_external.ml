(* Seeded foreign-zone violations: C stubs are private to lib/crypto, whose
   wrappers check every region before the call. An external in the storage
   layer (or in a signature inside it) bypasses that. The runtest rule
   asserts the syntactic pass flags this file (non-zero exit). Parsed by
   the pass, never compiled. *)

external block_crc : bytes -> int -> int -> int = "storage_block_crc" [@@noalloc]

module Fast : sig
  external memcmp : string -> string -> int = "storage_memcmp"
end = struct
  external memcmp : string -> string -> int = "storage_memcmp"
end
