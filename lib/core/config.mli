(** Cluster configuration and the paper's baseline matrix.

    One engine, six configurations — exactly the systems the evaluation
    compares. A {!security_profile} fixes the TEE mode (native vs SCONE),
    whether persistent data and messages are encrypted, whether they are
    authenticated, and whether the stabilization protocol runs. *)

type security_profile = {
  tee : Treaty_tee.Enclave.mode;
  encryption : bool;
  authentication : bool;
  stabilization : bool;
  block_cache_bytes : int;
      (** Byte budget for the verified block cache (enclave memory,
          default 8 MiB); 0 disables the cache. Bloom filters are always
          consulted. *)
  sanitize : bool;
      (** TreatySan runtime sanitizer (off in every named profile): lockset
          tracking in [Lock_table], the fiber-starvation watchdog, and —
          when the profile also encrypts — plaintext-taint checks at the
          netsim and host-storage boundaries. Findings land in
          {!Treaty_util.Sanitizer}. *)
  trace : bool;
      (** Deterministic span tracing (off in every named profile): record
          per-transaction span trees in {!Treaty_obs.Trace} on the sim
          clock, exportable as Chrome [trace_event] JSON
          ([treaty run --trace]). *)
  metrics : bool;
      (** Metrics registry (off in every named profile): populate
          {!Treaty_obs.Metrics} — abort taxonomy, wait-time histograms,
          pipeline counters, fiber-scheduler profile
          ([treaty run --metrics]). *)
}

val default_block_cache_bytes : int

val ds_rocksdb : security_profile
(** Native 2PC over plain RocksDB-like storage: the paper's baseline. *)

val native_treaty : security_profile
(** Treaty's code (auth checks) outside SGX, no encryption. *)

val native_treaty_enc : security_profile

(** SCONE, authenticated, unencrypted. *)
val treaty_no_enc : security_profile

val treaty_enc : security_profile

(** The full system. *)
val treaty_enc_stab : security_profile

val profile_name : security_profile -> string

type t = {
  profile : security_profile;
  nodes : int;
  cores_per_node : int;
  isolation : Types.isolation;
  engine : Treaty_storage.Engine.config;
  cost : Treaty_sim.Costmodel.t;
  rpc_timeout_ns : int;
  client_op_timeout_ns : int;
  decision_query_timeout_ns : int;
      (** Timeout for cooperative-termination decision queries
          ([k_query_decision]); chaos schedules with large delay spikes need
          it above the spike so prepared transactions are not stranded. *)
  sweep_interval_ns : int;  (** Background hygiene sweep period. *)
  part_prepared_resolve_ns : int;
      (** Age at which a prepared participant tx is driven to resolution. *)
  part_stale_abort_ns : int;
      (** Age at which an unprepared participant tx (silent coordinator) is
          aborted to unblock its keys. *)
  coord_tx_abandon_ns : int;
      (** Age at which an idle coordinator tx (vanished client) is aborted;
          transactions mid-commit are never touched. *)
  dedup_ttl_ns : int;
      (** TTL for non-transactional at-most-once cache entries (see
          {!Treaty_rpc.Erpc.config}). *)
  record_history : bool;  (** Feed the serializability checker. *)
  naive_rpc_port : bool;
      (** Ablation: the unmodified eRPC-in-SCONE port — message buffers in
          the EPC, rdtsc OCALLs on the hot path (§VII-A). *)
  seed : int64;
}

val default : t
val with_profile : t -> security_profile -> t
(** Applies the profile, including the engine knob it implies (the block
    cache budget). Whether the engine stabilizes, and so whether a commit
    waits for a trusted counter, is the profile's [stabilization] alone. *)
