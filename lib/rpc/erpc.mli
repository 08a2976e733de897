(** Asynchronous RPC engine for transactions (§VII-A).

    The shape follows eRPC as the paper uses it: a caller allocates message
    buffers from the mempool (in untrusted host memory, encrypted — never in
    the EPC), enqueues the request, and yields; the receiving node's request
    handler runs on a fiber and enqueues the response; a continuation wakes
    the caller, which then frees the buffers. The polling loops of real
    eRPC/DPDK become fiber suspensions in the simulator — same control flow,
    no busy-waiting.

    Security (§V-A, §VII-A): in [Secure] mode every message is sealed with
    the network key, and the (coordinator, tx, op) id triple enforces
    at-most-once execution: a replayed or duplicated request is answered from
    a response cache instead of re-executing, and a tampered message fails
    its MAC and is dropped (the caller times out).

    Burst coalescing (eRPC's TxBurst): messages queued to one destination
    leave together in one packet — one transport traversal, one
    serialization fragmented by MTU, and one {!Secure_msg.Burst} seal. A
    burst goes out at the end of the simulated instant in which it was
    queued, or right after the burst the endpoint is still sending then;
    a queue of 32 messages goes at once. There is no timer. *)

type config = {
  transport : Transport.kind;  (** [Dpdk] for Treaty; kernel paths for baselines. *)
  params : Transport.params;
  security : Secure_msg.security;
  msgbuf_region : Treaty_memalloc.Mempool.region;
      (** [Host] for Treaty; [Enclave] models the naive SCONE port of eRPC
          that triggers EPC paging (§VII-A). *)
  rdtsc_ocalls : bool;
      (** Model the unmodified eRPC codebase whose timestamping OCALLs cause
          a world switch per burst (Treaty replaces rdtsc with a monotonic
          counter). *)
  timeout_ns : int;  (** Default request timeout. *)
  dedup_ttl_ns : int;
      (** Lifetime of at-most-once cache entries whose identity is
          non-transactional (fresh per call, never replayed beyond the
          network's duplication window): without an owning transaction no
          commit/abort ever forgets them, so they are reclaimed by age. *)
}

val default_config : security:Secure_msg.security -> config

type error = [ `Timeout | `Tampered ]

type stats = {
  mutable requests_sent : int;
  mutable responses_sent : int;
  mutable mac_failures : int;  (** Tampered messages dropped. *)
  mutable replays_suppressed : int;  (** At-most-once cache hits. *)
  mutable timeouts : int;
  mutable bursts_sent : int;  (** Packets emitted (each carries a burst). *)
  mutable burst_msgs : int;
      (** Messages carried in those packets — [burst_msgs / bursts_sent] is
          the coalescing factor. *)
}

type t

val create :
  Treaty_sim.Sim.t ->
  net:Treaty_netsim.Net.t ->
  enclave:Treaty_tee.Enclave.t ->
  pool:Treaty_memalloc.Mempool.t ->
  config:config ->
  node_id:int ->
  ?net_config:Treaty_netsim.Net.endpoint_config ->
  unit ->
  t
(** Create and register the endpoint on the network. Incoming packets are
    processed on freshly spawned fibers (one per request — the paper's
    fiber-per-client model under a closed-loop workload). [enclave] is the
    endpoint's incarnation: while {!Treaty_tee.Enclave.live} holds it
    sends, replies and dispatches, and the network delivers to it; once the
    enclave halts it does none of these, whatever fiber asks. Bursts draw
    IVs from [enclave]'s generator ({!Treaty_tee.Enclave.iv_gen}), keyed by
    its incarnation, so a rebuilt endpoint never repeats an IV under the
    network key. *)

val node_id : t -> int
val stats : t -> stats
val enclave : t -> Treaty_tee.Enclave.t

val register : t -> kind:int -> (Secure_msg.meta -> string -> string) -> unit
(** Install the request handler for a message kind. The handler runs on a
    fiber and may block (locks, log stabilization, nested RPCs). *)

val call :
  t ->
  dst:int ->
  kind:int ->
  ?coord:int ->
  ?tx_seq:int ->
  ?op_id:int ->
  ?timeout_ns:int ->
  ?span:Treaty_obs.Trace.span ->
  string ->
  (string, error) result
(** Issue a request and block the current fiber until the response arrives
    or the timeout fires. The id triple defaults to a fresh, non-transactional
    identity built from the enclave's incarnation number, so no two
    incarnations under one wire id share one; 2PC passes the real
    (coord, tx, op). When tracing, [span] parents an [rpc.call] span whose
    id is registered under the triple so the remote handler links to it
    ({!Treaty_obs.Trace.ctx_resolve}). *)

val forget_tx : t -> coord:int -> tx_seq:int -> unit
(** Drop the at-most-once response cache for a finished transaction. *)

val expire_dedup : t -> unit
(** Reclaim non-transactional at-most-once entries older than
    [dedup_ttl_ns]. Runs automatically on request arrival; background
    sweepers call it so quiet endpoints drain too. *)

val dedup_size : t -> int
(** Entries currently held in the at-most-once response cache. After all
    transactions finish, duplicates age out and sweeps run, this returns to
    zero — the leak-freedom invariant the chaos harness checks. *)

val shutdown : t -> unit
(** Crash/stop: halt the endpoint's enclave ({!Treaty_tee.Enclave.halt}).
    Messages still queued for a burst are discarded. *)
