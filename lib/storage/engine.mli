(** Treaty's per-node storage engine: SPEICHER extended for transactions
    (§V-B, §VII-B).

    A leveled LSM tree over the untrusted SSD: a MemTable absorbing writes,
    counter-stamped authenticated logs (WAL, MANIFEST, Clog), authenticated
    SSTables, flush and cascading compaction, and group commit. On top of
    plain puts it supports the two-phase-commit-facing operations the Tx
    layer needs: [prepare]/[resolve] for participant-side transactions and
    Clog appends for coordinator protocol state.

    Stabilization is injected: the Tx layer supplies a {!stability} record
    wired to the trusted counter service; an engine created with [None] is
    the "w/o Stab" configuration, where every entry counts as trusted once
    it is on disk and no wait opens a span. Garbage collection of
    WALs and compacted SSTables is gated on the MANIFEST entries that
    obsolete them being stable, so recovery from the rollback-protected
    prefix never references deleted files.

    Only appends that a caller waits on start a counter round: single-node
    commits and MANIFEST edits [submit] theirs as they append, so the round
    overlaps the rest of the operation. A participant's [Prepare] and
    [Resolve] and every Clog window only [note] their counter; the next
    round carries it, and the Clog records anybody waits on, [Begin_2pc] at
    the commit point and abort decisions, start that round from their
    waits.
    Recovery re-derives a record left outside the trusted prefix from the
    stable prepare or decision it follows. *)

type stability = {
  submit : span:Treaty_obs.Trace.span -> log:string -> counter:int -> unit;
      (** Kick off asynchronous stabilization of [counter] on [log]. When
          tracing, [span] (the group-commit flush span, [Trace.none]
          otherwise) parents the ROTE epoch round carrying the target. *)
  note : log:string -> counter:int -> unit;
      (** Record [counter] on [log] for the next round without starting
          one. *)
  wait_stable :
    span:Treaty_obs.Trace.span ->
    log:string ->
    counter:int ->
    (unit, [ `Stability_timeout ]) result;
      (** Block the calling fiber until stabilized, starting a round if none
          runs ([span], the waiter's, parents it). [Error] means the
          counter service gave up (quorum unreachable past its retry
          budget): the entry is durable locally but not rollback-protected. *)
}

type config = {
  memtable_max_bytes : int;
  file_bytes : int;  (** Target SSTable size from compactions. *)
  level_base_bytes : int;  (** L1 capacity; each level below is 10x. *)
  group_commit : bool;
      (** WAL group commit (§VII-B; [false] is the paper's ablation A). Clog
          appends always go through their own group commit unless
          [in_memory]: one authenticated append + one counter note per
          yield window of 2PC records. Both windows are 15 µs. *)
  values_in_enclave : bool;  (** Ablation: MemTable values in EPC. *)
  in_memory : bool;
      (** Skip all persistence (no WAL/MANIFEST/Clog writes, no flushes):
          isolates the 2PC protocol itself, as the paper's Figure 4 run
          "without any underlying storage". *)
  block_cache_bytes : int;
      (** Byte budget for the verified block cache (enclave memory). The
          cache exists iff this is positive and the engine is not
          [in_memory]. *)
}

val default_config : config

type stats = {
  mutable gets : int;
  mutable commits : int;
  mutable prepares : int;
  mutable flushes : int;
  mutable compactions : int;
  mutable sst_block_reads : int;
  mutable wal_appends : int;
  mutable clog_appends : int;
  mutable cache_hits : int;  (** Block-cache hits (SSD read + verify + decrypt skipped). *)
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable bloom_negatives : int;  (** Files skipped entirely by a Bloom probe. *)
  mutable bloom_false_positives : int;
      (** Bloom said "maybe", the verified block said no. *)
  mutable get_retries : int;
      (** Point reads restarted because a compaction deleted a file between
          the index lookup and the block read. *)
}

type recovery_info = {
  prepared : (Wal_record.txid * (string * Op.t) list) list;
      (** Prepared, unresolved transactions found in the WALs. A [Prepare]
          followed by a commit [Resolve] is rebuilt as a commit mark
          instead ({!committed_txs}). *)
  clog_records : (int * Clog_record.record) list;
      (** Surviving coordinator 2PC state, counter-tagged. *)
  wal_entries_dropped : int;  (** Unstabilized tail entries discarded. *)
  clog_entries_dropped : int;
}

type t

val create : ?node:int -> Ssd.t -> Sec.t -> config -> stability option -> t
(** Initialize a fresh database on an empty SSD. [node] is the trace pid
    lane this engine's spans render on (default 0). *)

val recover :
  ?node:int ->
  Ssd.t ->
  Sec.t ->
  config ->
  stability option ->
  trusted:(string -> int option) ->
  (t * recovery_info, string) result
(** Rebuild from the SSD after a crash: replay MANIFEST, verify and reopen
    the SSTable hierarchy, replay live WALs (restoring the MemTable and
    prepared transactions), replay the Clog. [trusted] maps a log name to
    the trusted counter service's value for it — [None] disables freshness
    enforcement (the non-Stab configurations). Detected rollback, tampering
    or truncation surfaces as [Error description]. *)

val sec : t -> Sec.t
val stats : t -> stats
val config : t -> config

val snapshot : t -> int
(** Latest visible sequence number: the read snapshot for new transactions. *)

val get :
  ?span:Treaty_obs.Trace.span -> t -> key:string -> snapshot:int -> Memtable.lookup
(** Point lookup at a snapshot: MemTable, then immutable MemTables, then L0
    newest-first, then (via fence-array binary search) the one candidate
    file per deeper level. Each SSTable probe consults the file's Bloom
    filter first and block reads go through the verified block cache. [span] parents the [sst.read] spans of any block fetches.
    A block read that finds its file deleted by a concurrent compaction is
    retried (up to 3 times, counted in [get_retries]); a tampered, truncated
    or persistently missing SSTable raises {!Sec.Integrity_violation}. *)

val scan :
  ?span:Treaty_obs.Trace.span ->
  t ->
  lo:string ->
  hi:string ->
  snapshot:int ->
  (string * string) list
(** Range scan at a snapshot: merges the MemTables and every overlapping
    SSTable (block reads through the cache when enabled), keeps the
    freshest visible version of each key, drops tombstones. Results in key
    order. *)

val commit :
  t ->
  ?span:Treaty_obs.Trace.span ->
  writes:(string * Op.t) list ->
  unit ->
  (int, [ `Stability_timeout ]) result
(** Durably commit one transaction's write set: appends to the WAL
    (group-committed with concurrent callers when enabled), applies to the
    MemTable at a freshly assigned sequence number (returned), publishes
    visibility, and, with stabilization and storage, blocks until the WAL
    entry is rollback-protected (§V-B). [Error] if that wait fails: the
    writes are applied and locally durable, but the caller must not
    acknowledge the transaction as committed. [span] parents the WAL flush
    and stabilization-wait spans. *)

val retain_snapshot : t -> int -> unit
(** Pin a snapshot: compactions keep every version a transaction reading at
    it could need. Pair with {!release_snapshot}. *)

val release_snapshot : t -> int -> unit

val min_active_snapshot : t -> int
(** The compaction GC watermark: the lowest retained snapshot, or the
    current visible sequence number when none is retained. Compaction may
    drop a shadowed version only if a newer version is also at or below
    this watermark. *)

val active_snapshot_count : t -> int
(** Total outstanding {!retain_snapshot} references. Zero at quiescence —
    a transaction path that drops its context without releasing pins the
    GC watermark; TreatySan checks this at the end of sanitized runs. *)

val prepare : t -> tx:Wal_record.txid -> writes:(string * Op.t) list -> unit
(** Participant prepare: append the transaction's writes to the WAL and
    return once the record is on disk. Its counter is only noted: the
    prepare becomes trusted in a later round — the coordinator's commit
    point, which carries the participant's pending targets from its vote,
    or any round of this node's own — and is resolved by the coordinator's
    decision (or recovery). *)

val resolve : t -> tx:Wal_record.txid -> commit:bool -> int option
(** Commit or abort a prepared transaction. On commit the writes are applied
    at a fresh sequence number (returned), and the transaction stays as a
    commit mark that pins its prepare's WAL until {!forget_commit} or
    {!forget_commits}. Unknown/already-resolved transactions return [None]
    (duplicate commit messages are ignored, §VI). The [Resolve] WAL record
    starts no counter round: nobody waits on it, and a crash that loses it
    leaves the stable prepare, which recovery re-locks and resolves from the
    coordinator's decision; a crash that keeps it leaves the mark. *)

val prepared_txs : t -> Wal_record.txid list
(** Prepared transactions that no {!resolve} has claimed yet. *)

val slice_state :
  t -> tx:Wal_record.txid -> [ `Prepared | `Resolving | `Committed ] option
(** Where [tx]'s slice is: prepared, being resolved (outcome not yet
    applied), or a commit mark; [None] once aborted, forgotten or never
    prepared. *)

val committed_txs : t -> (Wal_record.txid * int) list
(** Commit marks, each with the simulated time it was resolved (or
    re-logged by recovery): resolved commits whose coordinator's decision
    is not yet known to be trusted. *)

val forget_commit : t -> tx:Wal_record.txid -> unit
(** Drop [tx]'s commit mark, if any, and unpin its WAL. *)

val forget_commits : t -> coord:int -> below:int -> unit
(** Drop every commit mark of coordinator [coord] numbered below [below]:
    the coordinator's ack, its decision watermark plus one. *)

val prepared_write_sets : t -> (string * Op.t) list list
(** The write sets of {!prepared_txs} and of the slices a {!resolve} is
    applying: what a reader that begins now would see installed later than
    its snapshot. *)

val key_prepared : t -> key:string -> bool
(** Does any prepared-but-unresolved transaction write [key]? Used by the
    read-only fast path's stability guard: such a transaction may already
    be globally decided (its resolve merely in flight here), so a snapshot
    read around it could miss a write serialized before data it returns. *)

val range_prepared : t -> lo:string -> hi:string -> bool
(** Does any prepared-but-unresolved transaction write a key in
    [\[lo, hi\]]? Used by a scan's guard, for the same reason. *)

val clog_log : string
(** The Clog's log name, as the trusted counter service knows it. *)

val clog_append : t -> ?span:Treaty_obs.Trace.span -> Clog_record.record -> int
(** Append coordinator 2PC state; returns the Clog counter value. Unless
    the engine is [in_memory], the record is merged into the current yield
    window (blocking until the window flushes) and the returned counter is
    shared by every record in the window. [span] parents the Clog flush
    span. The append starts no counter round; {!clog_wait_stable} does. *)

val clog_wait_stable :
  t ->
  ?span:Treaty_obs.Trace.span ->
  counter:int ->
  unit ->
  (unit, [ `Stability_timeout ]) result
(** Block until Clog [counter] is trusted, starting the round that carries
    it (and every earlier append on this node) if none runs. [Ok] at once
    without stabilization. *)

val stab_wait :
  t ->
  ?span:Treaty_obs.Trace.span ->
  args:(string * Treaty_obs.Trace.arg) list ->
  (Treaty_obs.Trace.span -> (unit, [ `Stability_timeout ]) result) ->
  (unit, [ `Stability_timeout ]) result
(** The one wait for a trusted counter: run the wait under a ["stab.wait"]
    span (a child of [span], carrying [args], ended with the status) and
    record its duration in the [stab.wait_ns] histogram. The wait gets the
    span, to parent the round it starts. {!commit}, {!clog_wait_stable} and
    a coordinator's commit point wait through it. *)

val clog_trim : t -> upto:int -> unit

val wal_group_stats : t -> Group_commit.stats option
val clog_group_stats : t -> Group_commit.stats option
(** Batching efficiency of the WAL / Clog group commits ([None] when the
    corresponding group commit is disabled). *)

val log_last_counters : t -> (string * int) list
(** (log name, last counter) for every live log — what the trusted counter
    service is asked to vouch for. *)

val flush_now : t -> unit
(** Force MemTable rotation and wait for the flush to complete (tests). *)

val compact_now : t -> unit
(** Enqueue a full compaction pass and block until the background
    compaction queue has drained (deterministic; tests). *)

val compaction_idle : t -> bool
(** No queued work and no compactor fiber running. *)

val cache_usage : t -> (int * int) option
(** (used_bytes, capacity_bytes) of the verified block cache, [None] when
    disabled. *)
