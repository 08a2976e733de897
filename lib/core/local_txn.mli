(** Single-node transactions over the storage engine (§V-B).

    Each Treaty node runs a transactional single-node KV engine; distributed
    transactions "can then be viewed as the set of all participants' single
    node Txs". A [Local_txn.t] is one node's slice of a transaction:

    - {b pessimistic}: read/write locks are taken at access time (two-phase
      locking); commit is trivially valid;
    - {b optimistic}: accesses record the version sequence numbers they saw;
      {!prepare} validates them against the freshest versions and takes
      write locks only for the installation window.

    Uncommitted writes are buffered in enclave memory (charged to the EPC, as
    the paper's Tx buffers are, §VII-D) and are visible to the transaction's
    own reads. *)

type t

val begin_ :
  ?span:Treaty_obs.Trace.span ->
  engine:Treaty_storage.Engine.t ->
  locks:Lock_table.t ->
  isolation:Types.isolation ->
  tx:Types.txid ->
  unit ->
  t
(** [span] (default none) parents the lock-wait spans this transaction's
    accesses may open. *)

val set_span : t -> Treaty_obs.Trace.span -> unit
(** Re-point the lock-wait parent. Participant slices outlive individual RPC
    handlers; each op sets the currently-open handler span before executing
    so waits nest under the op that incurred them. *)

val tx : t -> Types.txid

val get : t -> string -> (string option, [ `Timeout ]) result
(** Read-your-own-writes, then the engine at this transaction's snapshot. *)

val get_with_seq :
  ?mode:Lock_table.mode -> t -> string -> (string option * int, [ `Timeout ]) result
(** Like {!get}, also returning the version sequence number observed (0 for
    not-found or own-write reads). [mode] (default [Read]) is the lock a
    2PL read takes: [Write] is a locking read, which a later write of the
    key needs no upgrade for. OCC takes no lock either way and validates
    the read at prepare. *)

val scan : t -> lo:string -> hi:string -> ((string * string) list, [ `Timeout ]) result
(** Snapshot-consistent range scan merged with the transaction's own
    buffered writes; under 2PL every returned key is read-locked (committed
    keys only — there is no gap locking, so phantoms are possible, as in
    RocksDB's transactions). *)

val put : t -> string -> string -> (unit, [ `Timeout ]) result
val delete : t -> string -> (unit, [ `Timeout ]) result

val writes : t -> (string * Treaty_storage.Op.t) list
(** Buffered write set in application order. *)

val read_set : t -> (string * int) list
(** (key, version seq observed) — what OCC validates and the
    serializability checker consumes. *)

val prepare : t -> (unit, [ `Conflict | `Timeout ]) result
(** Make the transaction commit-ready: validation + write locks under OCC, a
    no-op check under 2PL. Does not touch the log — the caller decides
    between local commit and distributed prepare. *)

val finish : t -> unit
(** Release locks and enclave buffers. Idempotent; called on commit and
    abort alike. *)

val finished : t -> bool
(** Whether {!finish} has run. A handler that blocked can use it to see
    that another handler ended the transaction meanwhile. *)

