(** Deterministic Bloom filter over an SSTable's user keys (§VII-B read
    path).

    Built at [Sstable.build]/compaction time, persisted in the (v2) footer
    — and therefore covered by the footer digest recorded in the MANIFEST,
    so a tampered filter is caught at [open_] like any other footer byte —
    and held in enclave memory, where a negative probe lets a point lookup
    skip the block read, hash check and decryption entirely.

    ~10 bits and 7 probes per key (~1% false positives). Hashing is two
    fixed FNV-1a streams: no randomized or address-dependent state, so the
    filter is a pure function of the key set (determinism contract). *)

type t

val create : expected:int -> t
(** Sized for [expected] distinct keys. *)

val add : t -> string -> unit

val mem : t -> string -> bool
(** No false negatives; false positives at the configured rate. A positive
    answer is only a hint — the caller must still verify against the
    authenticated block. *)

val bytes : t -> int
(** Filter size (enclave-residency accounting). *)

val encode : Buffer.t -> t -> unit

val decode : Treaty_util.Wire.reader -> (t, string) result
(** Total: corrupt or truncated input is an [Error] naming the fault, never
    an exception. *)
