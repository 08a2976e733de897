(** A Treaty deployment: CAS + storage nodes + shared fabric.

    [create] runs the full §VI trust-establishment flow inside the calling
    fiber: bootstrap the CAS (attested once over the slow IAS), deploy a LAS
    on every machine, attest every Treaty instance through its LAS, and
    provision the attested instances with the cluster secrets. Each node's
    trusted counters are then replicated across its protection group of
    2f+1 storage nodes ({!Treaty_counter.Rote.protection_group}); a
    restarting node recovers against that group, so it needs one of its
    group peers live.

    Node indexes are 0-based; the wire-level node ids are index+1, the CAS
    sits at id 900, clients at 1000+. *)

type t

val create :
  Treaty_sim.Sim.t ->
  Config.t ->
  ?route:(string -> int) ->
  unit ->
  (t, string) result
(** [route] maps a key to a node index (default: hash). Must run in a fiber
    ([Sim.run] context). *)

val sim : t -> Treaty_sim.Sim.t
val config : t -> Config.t
val net : t -> Treaty_netsim.Net.t
val node : t -> int -> Node.t
(** By index; raises if the node is currently crashed. *)

val node_ids : t -> int list
(** Wire ids of live storage nodes. *)

val n_nodes : t -> int
val route_key : t -> string -> int
(** Wire id of the node owning a key. *)

val history : t -> Serializability.t option
val master : t -> Treaty_crypto.Keys.master
val cas_id : int

val next_incarnation : t -> endpoint:int -> int
(** The incarnation for a new enclave at wire id [endpoint]: 0 the first
    time, then one more per call. {!Node.deps} and [Client.connect] take
    theirs from here, so a restarted node or a reconnected client never
    reuses an IV under the keys that outlive it
    ({!Treaty_crypto.Aead.Iv_gen}). Counted in the cluster, not drawn from
    the simulator's RNG. *)

val client_token : t -> client_id:int -> (string, [ `Cas_down ]) result
(** Obtain a client auth token from the CAS (models the out-of-band client
    registration). *)

val crash_node : t -> int -> unit
(** Power off a node: volatile state lost, SSD retained. *)

val restart_node : t -> int -> (unit, string) result
(** Re-attest to the CAS and run recovery. Fails if the CAS is down
    ("in case CAS fails, crashed nodes cannot recover", §VI), if attestation
    is rejected, if the logs fail their integrity/freshness checks, or at
    once if another restart of the node is still in progress. *)

val crash_cas : t -> unit

val check_quiescent : t -> (unit, string) result
(** Leak-freedom: every live node's residual protocol state
    ({!Node.residual_state}) must be empty — no at-most-once cache entries,
    held locks, live transaction contexts or prepared-undecided engine
    transactions. Call only after all traffic has stopped and sweeps/TTLs
    have had time to run. [Error] names the leaking nodes and counters. *)

val sanitize_check : t -> (unit, string) result
(** TreatySan end-of-run audit: sweep every live node's lock table for
    residual holders ({!Lock_table.leak_check}) and fail if the
    {!Treaty_util.Sanitizer} collector saw any violation (warnings such as
    hold-and-wait timeouts do not fail the run). [Error] carries the
    sanitizer report. *)

val node_ssd : t -> int -> Treaty_storage.Ssd.t
(** The node's persistent store — live or crashed — for adversary tests. *)

val total_committed : t -> int
val total_aborted : t -> int

val pipeline_counters : t -> (string * int) list
(** Commit-pipeline batching counters aggregated over live nodes, in a fixed
    order: group commit ([wal.items]/[wal.batches], [clog.*]), epoch
    stabilization ([rote.*], [counter.*]) and RPC burst coalescing
    ([rpc.*]). Crashed nodes' counters are lost with their volatile state.
    The names double as registry gauge names (see {!publish_metrics}). *)

val publish_metrics : t -> unit
(** Snapshot {!pipeline_counters} into the {!Treaty_obs.Metrics} registry as
    [pipeline.*] gauges, and the fiber-scheduler profile as
    [fiber.<label>.*] gauges. No-op when the registry is disabled. *)

val pipeline_summary : t -> string
(** Human-readable rendering of {!pipeline_counters} with the derived
    per-batch / per-round ratios. *)

val shutdown : t -> unit
(** Stop all nodes and the CAS so the simulation can drain. *)
