(** Verified block cache: enclave-resident LRU of already-decrypted,
    already-verified SSTable blocks.

    A hit on the authenticated read path skips the SSD read, the block-hash
    check and the AEAD decryption — the Fides-style observation that
    verification cost is amortized by caching authenticated data in trusted
    memory. The cached plaintext therefore lives strictly inside the
    enclave trust zone: this module holds bytes and bookkeeping only and
    never touches [Net] or [Ssd] (treatycheck's syntactic pass enforces
    that, and the engine registers cached plaintext with [Taint] so
    TreatySan catches any escape to an untrusted boundary at runtime).

    Keys are [(file_id, block_idx)]; file ids are never reused, so an entry
    can go stale only by outliving its file — compaction invalidates the
    inputs' entries when it swaps them out. Capacity is a byte budget
    ([Config.profile.block_cache_bytes]); recency is an explicit linked
    list, so eviction order is a pure function of the access sequence
    (determinism contract), never of [Hashtbl] internals.

    The cache itself is storage-agnostic ['a] bookkeeping; enclave-memory
    accounting is the caller's job, which is why mutators return the bytes
    they freed. *)

type 'a t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

val create : capacity_bytes:int -> 'a t

val find : 'a t -> file_id:int -> block:int -> 'a option
(** Bumps the entry to most-recently-used; counts a hit or miss. *)

val insert : 'a t -> file_id:int -> block:int -> bytes:int -> 'a -> int
(** Insert (replacing any stale entry for the same key), evicting from the
    LRU tail until the budget holds. Returns the bytes freed by
    replacement/eviction so the caller can release the matching enclave
    allocation. Values larger than the whole budget are not cached
    (returns 0 with the cache untouched). *)

val invalidate_file : 'a t -> file_id:int -> int
(** Drop every block of [file_id] (compaction deleted it); returns bytes
    freed. *)

val clear : 'a t -> int

val stats : 'a t -> stats
val used_bytes : 'a t -> int
val capacity_bytes : 'a t -> int
val entries : 'a t -> int
