(** Binary record encoding shared by the log, SSTable and message formats.

    Fixed-width little-endian integers and length-prefixed strings over a
    [Buffer.t] writer and a cursor-based reader. Decoding raises {!Malformed}
    on truncated or corrupt input — callers on untrusted data (log replay,
    block parsing) catch it and treat it as an integrity failure. *)

exception Malformed of string

val w8 : Buffer.t -> int -> unit
val w32 : Buffer.t -> int -> unit
val w64 : Buffer.t -> int -> unit
val wbool : Buffer.t -> bool -> unit
val wstr : Buffer.t -> string -> unit
(** 32-bit length prefix + bytes. *)

val wlist : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

type reader

val reader : ?pos:int -> string -> reader
val pos : reader -> int
val at_end : reader -> bool
val r8 : reader -> int
val r32 : reader -> int
val r64 : reader -> int
val rbool : reader -> bool
val rstr : reader -> string
val rlist : reader -> (reader -> 'a) -> 'a list
val rbytes : reader -> int -> string
(** Raw bytes without a length prefix. *)

val expect : ('a, string) result -> 'a
(** Inside a read that runs under a total decoder: a nested decoder's
    [Error] fails the whole read with {!Malformed}. *)
