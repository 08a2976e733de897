(** HMAC-SHA256 (RFC 2104).

    A key can be preprocessed into a {!t} whose inner/outer pad states are
    computed once; each subsequent MAC then costs only the message blocks
    plus one extra compression. The authenticated logs MAC millions of small
    entries with the same key, so this matters. Every MAC works in one set
    of scratch hash states that all keys share, so it allocates nothing but
    the tag it returns ({!stream_mac_into}: not even that). A MAC never
    yields, so no two MACs interleave. *)

type t

val create : string -> t
(** Preprocess a key of any length. *)

val mac : t -> string -> string
(** 32-byte tag over a message. *)

val mac_parts : t -> string list -> string
(** Tag over the concatenation of the parts, without building it. *)

val mac_bytes : t -> bytes -> int -> int -> string

(** {2 Incremental MACs}

    A [stream] absorbs discontiguous byte regions without concatenating
    them — the burst-level wire path MACs [iv || framing || ciphertext]
    straight out of the packet buffer. A stream is one-shot: after
    {!stream_mac} it must not be fed again. It lives in shared scratch, so
    one stream is open at a time: starting another, under any key,
    restarts it. The one-shot MACs above leave an open stream alone. *)

type stream

val stream : t -> stream
(** Start from the precomputed keyed inner state (a copy into the
    scratch, no key reprocessing, no allocation). *)

val feed_string : stream -> string -> unit
val feed_bytes : stream -> bytes -> int -> int -> unit
(** [feed_bytes s buf off len] absorbs [buf.[off .. off+len)]. *)

val stream_mac : stream -> string
(** Finalize: the 32-byte tag over everything fed so far. *)

val stream_mac_into : stream -> bytes -> int -> int -> unit
(** [stream_mac_into s dst off len] finalizes like {!stream_mac} and writes
    the tag's first [len] bytes to [dst.[off .. off+len)], allocating
    nothing. Raises [Invalid_argument], before finalizing, if [len] exceeds
    32 or the region is not inside [dst]. *)

val verify : t -> string -> tag:string -> bool
(** Constant-shape comparison of a full 32-byte tag. *)

val equal_tags : string -> string -> bool
(** Timing-safe equality on raw tags (any equal length). *)
