(** Client library: the transactional API of §IV-A.

    Clients authenticate with the CAS, register with the storage nodes over
    the (1 GbE) client network, and then drive interactive transactions:
    [begin_txn] picks a coordinator, [get]/[get_many]/[put]/[delete]
    execute operations through it, and [commit]/[rollback] end the
    transaction. Writes are buffered here and travel with the
    transaction's next request that needs an answer (see {!put}); one
    request carries them and then any number of gets ({!get_many}) or one
    scan. Any failed operation aborts the whole
    transaction coordinator-side; the client sees the abort reason on the
    request that carried it.

    Only a commit waits for the whole client op timeout, since the commit
    point may wait out the counter service's retries. A begin gives up
    after one node-to-node RPC timeout and every other request after
    three, and the call's node is then suspected (see {!begin_txn}). *)

type t
type txn

val connect :
  Cluster.t ->
  client_id:int ->
  (t, [ `Auth_failed | `Cas_down | `Timeout ]) result
(** Obtain a token from the CAS and register with every node. Must run in a
    fiber. [`Auth_failed]: a node refused the token; [`Timeout]: a node
    did not answer the register call in time. *)

exception Connect_failed of string

val connect_exn : Cluster.t -> client_id:int -> t
(** Like {!connect}, but raises {!Connect_failed} with the reason — for
    harness code that treats a failed connect as fatal. *)

val client_id : t -> int

val begin_txn : t -> ?coord:int -> unit -> txn Types.txn_result
(** Start a transaction at a coordinator (wire node id; default:
    round-robin over the nodes). A node that a call of this client timed
    out on is suspected: the default skips it, unless every node is, and
    probes it in the background by registering again; the first probe that
    succeeds ends the suspicion. *)

val tx_seq : txn -> int

val get : t -> txn -> string -> string option Types.txn_result
(** Read a key, the transaction's own writes included. The writes buffered
    since the last request go with it, in one request, ahead of the
    read. *)

val get_many :
  t -> txn -> (string * Lock_table.mode) list -> string option list Types.txn_result
(** Read several keys in one request, after the buffered writes, and
    return their values in the order given; an empty list sends nothing.
    Each key says the lock a 2PL read of it takes: [Read], as {!get}
    takes, or [Write], a locking read (RocksDB's [GetForUpdate]) for a key
    the transaction will write, so the write needs no upgrade and two
    transactions that read-then-write one row queue for it instead of
    both holding its read lock. Under OCC both read alike. The
    coordinator sends each owner its keys in one request, all owners at
    once, so the call costs one round trip to the coordinator and its
    slowest owner. One key costs the bytes {!get} does. *)

val scan : t -> txn -> lo:string -> hi:string -> (string * string) list Types.txn_result
(** Snapshot-consistent range scan over the closed interval from [lo] to
    [hi], across all shards, merged with the transaction's own writes. As
    with {!get}, the buffered writes go with it in one request, ahead of
    the scan; the coordinator sends every node its share. Under 2PL the
    returned keys are read-locked (no gap locks: phantoms are
    possible). *)

val read_only : t -> string list -> (string * string option) list Types.txn_result
(** Zero-RPC read-only fast path: execute a client-declared read-only
    transaction without begin/commit rounds, locks, 2PC or stabilization
    waits. Keys are grouped by owning shard; each group is one RPC answered
    from a retained MVCC snapshot at the owner, and all groups are asked at
    once, so the call costs the slowest owner's round trip. Every owner is
    asked even if another fails; the error returned is the first in the
    order the owners first appear in [keys], and an owner that restarted
    is re-registered with (once) inside its own request. Results come back
    in input order. Each per-shard batch is an individually serializable read-only
    transaction (a consistent committed prefix of that shard); a call whose
    keys span shards gets per-shard snapshot consistency, not one global
    snapshot — use {!with_txn} when cross-shard atomicity matters. *)

val put : t -> txn -> string -> string -> unit Types.txn_result
(** Buffer a write and return [Ok ()] at once, without a request: the
    write is sent with the transaction's next {!get}, {!get_many},
    {!scan} or {!commit}, and takes its write lock then. A write that
    fails there (a lock timeout, a failed participant) aborts the
    transaction, and that request returns the reason. *)

val delete : t -> txn -> string -> unit Types.txn_result
(** Buffer a delete, as {!put} buffers a write. *)

val commit : t -> txn -> unit Types.txn_result
(** Send the writes not sent yet and commit. An [Error] is the reason the
    transaction aborted, a buffered write's included. *)

val rollback : t -> txn -> unit
(** Drop the buffered writes and abort the transaction at its
    coordinator. *)

val disconnect : t -> unit

val with_txn :
  t -> ?coord:int -> (txn -> 'a Types.txn_result) -> 'a Types.txn_result
(** Begin, run the body, commit on [Ok] (rolling back if the body failed).
    No automatic retry — workloads decide their own retry policy. *)
