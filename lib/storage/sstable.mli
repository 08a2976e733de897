(** Authenticated SSTables (SPEICHER's data model, §V-B).

    On disk a table is a sequence of blocks of sorted KV versions — each
    block encrypted as a unit in [enc] mode — followed by a footer holding
    per-block key ranges, offsets and hashes. The footer itself is
    authenticated by its digest recorded in the MANIFEST's [Add_file] entry,
    rooting the whole hierarchy in the counter-stamped MANIFEST chain:
    tampering with a block fails the footer's block hash, tampering with the
    footer fails the MANIFEST digest, and replaying an old file fails the
    MANIFEST freshness check.

    The footer starts with a {!Bloom} filter over the file's user keys,
    decoded into enclave memory at build/open time so absent-key probes
    can skip the block read + verify + decrypt entirely. The
    block-granular API ([find_block_idx]/[read_block_idx])
    lets the engine route reads through its verified block cache.

    All versions of one user key always share a block, so a point lookup
    touches exactly one block. *)

type entry = string * int * Op.t
(** (key, seq, op) in internal-key order: key asc, seq desc. *)

type handle

val footer_version : int
(** The footer format {!build} writes and {!open_} reads (2): its tag
    leads the footer, and the MANIFEST's [Add_file] records it. *)

val build :
  Ssd.t ->
  Sec.t ->
  file_id:int ->
  block_bytes:int ->
  entry Seq.t ->
  handle * string
(** Write a table from sorted entries as one sequential file write,
    replacing any file of the same id; returns the handle and the footer
    digest for the MANIFEST. The entries must be non-empty and sorted; they
    are read once, a block at a time, so a lazy sequence is never
    materialized whole. *)

val open_ : Ssd.t -> Sec.t -> file_id:int -> footer_digest:string -> handle
(** Recovery path: re-open a file named by its id, verifying the footer
    against the MANIFEST-recorded digest. Raises
    {!Sec.Integrity_violation} on mismatch. *)

type block_meta
(** A block's entry in the footer's index: its key span, where it lies in
    the file and its digest. *)

val decode_footer : string -> (Bloom.t * block_meta array, string) result
(** A footer: its Bloom filter and block index; any version tag but
    {!footer_version} is malformed. Total, as {!Wal_record.decode} is: truncated, corrupt or
    over-long input is an [Error], never an exception. {!open_} checks the
    footer's digest first and maps an [Error] to
    {!Sec.Integrity_violation}. *)

val decode_block : string -> (entry list, string) result
(** A block's plaintext, decoded as totally as {!decode_footer}. *)

val release : Sec.t -> handle -> unit
(** Drop the handle's enclave residency (the Bloom filter) when the file
    leaves the live hierarchy (compaction input). *)

val file_name : file_id:int -> string
val id : handle -> int
val min_key : handle -> string
val max_key : handle -> string
val data_bytes : handle -> int
val block_count : handle -> int

val overlaps : handle -> min:string -> max:string -> bool

val may_contain : handle -> string -> bool
(** Bloom probe: [false] means the key is definitely absent (skip the file);
    [true] is only a hint. *)

val find_block_idx : handle -> string -> int option
(** Binary search over the block index (fence pointers) for the one block
    whose key span may contain the key. *)

val block_span : handle -> int -> string * string
(** (first_key, last_key) of a block — overlap tests for cached range
    reads. *)

val read_block_idx : Ssd.t -> Sec.t -> handle -> int -> entry list * string
(** Read, verify and decrypt one block; returns the decoded entries and the
    plaintext bytes (the engine caches both — the plaintext string is what
    TreatySan taint-tracks, and its length is the cache-budget charge).
    Raises {!Ssd.No_such_file} if the file was deleted under the reader
    (compaction); {!Sec.Integrity_violation} on tampering or truncation. *)

val search_entries : entry list -> key:string -> max_seq:int -> (int * Op.t) option
(** Freshest version of [key] with [seq <= max_seq] in one block's entries
    (cache-hit lookup). *)

val get : Ssd.t -> Sec.t -> handle -> key:string -> max_seq:int -> (int * Op.t) option
(** Freshest version of [key] with [seq <= max_seq]. Reads, verifies and
    decrypts the one candidate block (uncached path). *)

val load_all : Ssd.t -> Sec.t -> handle -> entry list
(** Sequential scan of the whole table (compaction input; deliberately
    bypasses the block cache — compaction inputs are about to die). *)

val range :
  Ssd.t -> Sec.t -> handle -> lo:string -> hi:string -> max_seq:int -> entry list
(** All versions with [lo <= key <= hi] and [seq <= max_seq]: reads (and
    verifies) only the blocks whose key ranges overlap (uncached path). *)
