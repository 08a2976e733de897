(** A Treaty storage node (Figure 1): enclave, secure RPC endpoint, storage
    engine, lock table, trusted-counter replica — plus the transaction layer
    acting as 2PC coordinator for its clients' transactions and participant
    for everyone else's (§V-A, Figure 2).

    Message kinds on the node's endpoint (their wire format is
    {!Txn_wire}'s):
    - coordinator→participant: operation execution, scan, prepare, commit,
      abort, and decision queries from recovering participants;
    - client→coordinator: register, begin, op, scan, commit, rollback, and
      the read-only fast path.

    All handlers run on fibers (the userland scheduler), so a coordinator
    blocked on a participant's stabilization simply yields. *)

type t

type stats = {
  mutable committed : int;
  mutable aborted : int;
  mutable distributed_committed : int;
  mutable single_node_committed : int;
  mutable read_only_committed : int;
      (** Committed via the snapshot fast path (also counted in
          [committed]). *)
  mutable remote_ops_served : int;
  mutable decisions_queried : int;
}

type deps = {
  sim : Treaty_sim.Sim.t;
  config : Config.t;
  net : Treaty_netsim.Net.t;
  node_id : int;
  peers : int list;
      (** All storage node ids, self included. The counter replica's
          protection group is derived from it
          ({!Treaty_counter.Rote.protection_group}). *)
  route : string -> int;  (** Key -> owning node id (the shard map). *)
  master : Treaty_crypto.Keys.master;  (** Provisioned by the CAS. *)
  history : Serializability.t option;
  incarnation : int;
      (** The enclave incarnation this build runs as
          ({!Cluster.next_incarnation}): every restart attempt, and every
          bootstrap attestation endpoint before it, takes the next one under
          the node's wire id. Its enclave, endpoint and storage draw IVs
          from this incarnation's range only. *)
}

val create : deps -> t
(** Fresh node on an empty SSD. Registers handlers and the counter replica. *)

val recover_with : deps -> ssd:Treaty_storage.Ssd.t -> (t, string) result
(** Rebuild a node from its surviving SSD (§VI): replay + verify the logs
    (against the node's protection group when stabilization is on), re-lock
    prepared transactions and finish or abort in-doubt coordinator
    transactions from the Clog. Each recovered prepare is resolved the way
    the running node resolves one: a single cooperative-termination query to
    its coordinator; one that query leaves in doubt is re-queried by the
    background sweeper on every tick until its coordinator answers. *)

val node_id : t -> int
val stats : t -> stats
val engine : t -> Treaty_storage.Engine.t
val rpc : t -> Treaty_rpc.Erpc.t

val pool : t -> Treaty_memalloc.Mempool.t
(** The node's message-buffer pool; exposed so the chaos harness can run its
    quiescence-time leak check ({!Treaty_memalloc.Mempool.leak_check}). *)

val enclave : t -> Treaty_tee.Enclave.t
val ssd : t -> Treaty_storage.Ssd.t
val locks : t -> Lock_table.t
val rote : t -> Treaty_counter.Rote.replica
val counter_client : t -> Treaty_counter.Counter_client.t option

val authenticate_client : t -> client_id:int -> token:string -> bool

(** Residual protocol state — everything that must drain to zero once all
    transactions have finished and duplicates have aged out. The chaos
    harness checks it after every fault schedule (leak-freedom). *)
type residual = {
  res_dedup : int;  (** At-most-once cache entries ({!Treaty_rpc.Erpc.dedup_size}). *)
  res_locked_keys : int;  (** Keys with at least one lock holder. *)
  res_part_txs : int;  (** Live participant transaction contexts. *)
  res_coord_txs : int;  (** Live coordinator transaction contexts. *)
  res_prepared : int;  (** Prepared, undecided transactions in the engine. *)
  res_snapshots : int;
      (** Outstanding engine snapshot retentions
          ({!Treaty_storage.Engine.active_snapshot_count}) — a leak pins the
          compaction GC watermark. *)
}

val residual_state : t -> residual
val residual_total : residual -> int
val residual_to_string : residual -> string

val crash : t -> Treaty_storage.Ssd.t
(** Kill the node: its enclave halts ({!Treaty_tee.Enclave.halt}), so its
    endpoint drops every packet and its background loops end; volatile
    state is gone. The SSD survives and is returned for a later
    {!recover_with}. The incarnation's own handle onto the SSD is fenced
    ({!Treaty_storage.Ssd.detach}): its fibers that still run write nothing
    more to the device. *)

val stop : t -> unit
(** Graceful stop for simulation teardown (no recovery intended): halt the
    enclave, leave the disk handle attached. *)
