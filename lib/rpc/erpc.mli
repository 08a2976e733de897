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

    The caller frees its cached replies, as in RIFL (Lee et al., SOSP
    2015): every request carries its caller's watermark
    ({!Secure_msg.meta.acked}) for the space of its own identity, and every
    identity of that space numbered below it has finished at the caller.
    A coordinator's transactions are one space, keyed by its wire id; a
    caller incarnation's non-transactional calls (client requests, counter
    rounds, decision queries) are another, keyed by wire id and
    incarnation, and their watermark is the smallest such call that has not
    returned, by reply or by timeout. The receiver keeps per space the
    highest watermark and a list of its cached keys, and drops the keys
    below the watermark when it rises. A non-transactional request below
    the watermark that has no entry is a replay: it is neither run nor
    answered, so a watermark covers only its own incarnation's calls. A
    transactional one still runs: a recovering coordinator re-sends its
    decisions under their old numbers. The ack is sealed with the
    metadata, and the watermark outlives the keys, so replays of acked
    calls are refused for good. A space whose caller goes quiet loses its
    keys after [dedup_ttl_ns] ({!expire_dedup}).

    Burst coalescing (eRPC's TxBurst): messages queued to one destination
    leave together in one packet — one transport traversal, one
    serialization fragmented by MTU, and one {!Secure_msg.Burst} seal. A
    burst goes out at the end of the simulated instant in which it was
    queued, or right after the burst the endpoint is still sending then;
    a queue of 32 messages goes at once. There is no timer. *)

(** An endpoint's settings. Its messages take eRPC's kernel-bypass path,
    {!Transport.Dpdk}, priced with {!Transport.default_params}; the kernel
    paths are priced only by the Figure 8 benchmark, through {!Transport}
    directly. *)
type config = {
  security : Secure_msg.security;
  naive_port : bool;
      (** Model the naive SCONE port of eRPC (§VII-A): message buffers in
          the enclave, which triggers EPC paging, and timestamping OCALLs
          that cost a world switch per burst. Treaty keeps the buffers in
          host memory and replaces rdtsc with a monotonic counter. *)
  timeout_ns : int;  (** Default request timeout. *)
  dedup_ttl_ns : int;
      (** How long a caller may stay quiet before the at-most-once entries
          of its space that its ack has not freed are dropped: the backstop
          for one that goes quiet, such as one a crash, restart or
          reconnect replaced. An acked non-transactional identity stays
          refused after the entry is gone. *)
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
  ?acked:int ->
  ?timeout_ns:int ->
  ?span:Treaty_obs.Trace.span ->
  string ->
  (string, error) result
(** Issue a request and block the current fiber until the response arrives
    or the timeout fires. The id triple defaults to a fresh, non-transactional
    identity built from the enclave's incarnation number, so no two
    incarnations under one wire id share one; its coord is this endpoint's
    wire id ([coord] counts only with [tx_seq]), and its ack is this
    incarnation's lowest non-transactional call that has not returned. 2PC
    passes the real (coord, tx, op) and, as [acked], the coordinator's
    watermark: every transaction it numbered below [acked] has ended
    (default [0], acking none). When tracing, [span] parents an
    [rpc.call] span whose id is registered under the triple so the remote
    handler links to it ({!Treaty_obs.Trace.ctx_resolve}). *)

val expire_dedup : t -> unit
(** Reclaim the at-most-once entries of every space whose caller's last
    request is [dedup_ttl_ns] old: the only way an entry goes that no ack
    frees. Runs automatically on request arrival; background sweepers call
    it so quiet endpoints drain too. *)

val txn_floor : t -> coord:int -> int
(** The highest ack the transactional requests of coordinator [coord]
    (wire id) have carried here, 0 before the first: each of its
    transactions numbered below it has ended at the coordinator. *)

val dedup_size : t -> int
(** Entries currently held in the at-most-once response cache. After all
    transactions finish, duplicates age out and sweeps run, this returns to
    zero — the leak-freedom invariant the chaos harness checks. *)

val ack_index_size : t -> int
(** Keys held in the per-space index of cached entries. Every cached
    entry is filed there, so it drains with them. *)

val shutdown : t -> unit
(** Crash/stop: halt the endpoint's enclave ({!Treaty_tee.Enclave.halt}).
    Messages still queued for a burst are discarded. *)
