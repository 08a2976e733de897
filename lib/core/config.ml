module Enclave = Treaty_tee.Enclave

type security_profile = {
  tee : Enclave.mode;
  encryption : bool;
  authentication : bool;
  stabilization : bool;
  block_cache_bytes : int;
  sanitize : bool;
  trace : bool;
  metrics : bool;
}

let default_block_cache_bytes = 8 * 1024 * 1024

let ds_rocksdb =
  {
    tee = Enclave.Native;
    encryption = false;
    authentication = false;
    stabilization = false;
    block_cache_bytes = default_block_cache_bytes;
    sanitize = false;
    trace = false;
    metrics = false;
  }

let native_treaty =
  {
    tee = Enclave.Native;
    encryption = false;
    authentication = true;
    stabilization = false;
    block_cache_bytes = default_block_cache_bytes;
    sanitize = false;
    trace = false;
    metrics = false;
  }

let native_treaty_enc = { native_treaty with encryption = true }

let treaty_no_enc =
  {
    tee = Enclave.Scone;
    encryption = false;
    authentication = true;
    stabilization = false;
    block_cache_bytes = default_block_cache_bytes;
    sanitize = false;
    trace = false;
    metrics = false;
  }

let treaty_enc = { treaty_no_enc with encryption = true }
let treaty_enc_stab = { treaty_enc with stabilization = true }

let profile_name p =
  let sanitized = if p.sanitize then " +san" else "" in
  (match (p.tee, p.encryption, p.authentication, p.stabilization) with
  | Enclave.Native, false, false, false -> "DS-RocksDB"
  | Enclave.Native, false, true, false -> "Native Treaty"
  | Enclave.Native, true, true, false -> "Native Treaty w/ Enc"
  | Enclave.Scone, false, true, false -> "Treaty w/o Enc"
  | Enclave.Scone, true, true, false -> "Treaty w/ Enc"
  | Enclave.Scone, true, true, true -> "Treaty w/ Enc w/ Stab"
  | Enclave.Native, _, _, _ -> "custom (native)"
  | Enclave.Scone, _, _, _ -> "custom (scone)")
  ^ sanitized

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
  sweep_interval_ns : int;
  part_prepared_resolve_ns : int;
  part_stale_abort_ns : int;
  coord_tx_abandon_ns : int;
  dedup_ttl_ns : int;
  record_history : bool;
  naive_rpc_port : bool;
  seed : int64;
}

let default =
  {
    profile = treaty_enc_stab;
    nodes = 3;
    cores_per_node = 8;
    isolation = Types.Pessimistic;
    engine = Treaty_storage.Engine.default_config;
    cost = Treaty_sim.Costmodel.default;
    rpc_timeout_ns = 120_000_000;
    client_op_timeout_ns = 400_000_000;
    decision_query_timeout_ns = 20_000_000;
    sweep_interval_ns = 250_000_000;
    part_prepared_resolve_ns = 400_000_000;
    part_stale_abort_ns = 1_000_000_000;
    coord_tx_abandon_ns = 3_000_000_000;
    dedup_ttl_ns = 2_000_000_000;
    record_history = false;
    naive_rpc_port = false;
    seed = 0xC0FFEEL;
  }

let with_profile t profile =
  {
    t with
    profile;
    engine =
      { t.engine with Treaty_storage.Engine.block_cache_bytes = profile.block_cache_bytes };
  }
