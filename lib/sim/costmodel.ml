type t = {
  enclave_transition_ns : int;
  syscall_native_ns : int;
  syscall_scone_ns : int;
  scone_cpu_factor : float;
  scone_storage_factor : float;
  epc_limit_bytes : int;
  epc_page_fault_ns : int;
  sgx_hw_counter_inc_ns : int;
  engine_op_fixed_ns : int;
  engine_op_per_byte_ns : float;
  enc_per_byte_ns : float;
  enc_fixed_ns : int;
  hash_per_byte_ns : float;
  hash_fixed_ns : int;
  net_bandwidth_bytes_per_ns : float;
  net_propagation_ns : int;
  dpdk_per_msg_ns : int;
  kernel_per_msg_ns : int;
  kernel_syscalls_per_msg : int;
  scone_copy_per_byte_ns : float;
  mtu_bytes : int;
  ssd_write_base_ns : int;
  ssd_write_per_byte_ns : float;
  ssd_read_base_ns : int;
  ssd_read_per_byte_ns : float;
  page_cache_read_ns : int;
  rote_proc_ns : int;
  rote_round_latency_ns : int;
  rote_seal_ns : int;
}

let default =
  {
    enclave_transition_ns = 2_700;
    syscall_native_ns = 700;
    syscall_scone_ns = 900;
    scone_cpu_factor = 1.45;
    scone_storage_factor = 4.2;
    epc_limit_bytes = 94 * 1024 * 1024;
    epc_page_fault_ns = 12_000;
    sgx_hw_counter_inc_ns = 250_000_000;
    engine_op_fixed_ns = 5_000;
    engine_op_per_byte_ns = 1.2;
    enc_per_byte_ns = 0.25;
    enc_fixed_ns = 120;
    hash_per_byte_ns = 0.6;
    hash_fixed_ns = 200;
    net_bandwidth_bytes_per_ns = 5.0 (* 40 Gb/s = 5 B/ns *);
    net_propagation_ns = 5_000;
    dpdk_per_msg_ns = 350;
    kernel_per_msg_ns = 2_200;
    kernel_syscalls_per_msg = 2;
    scone_copy_per_byte_ns = 0.45;
    mtu_bytes = 1460;
    ssd_write_base_ns = 8_000;
    ssd_write_per_byte_ns = 0.25;
    ssd_read_base_ns = 9_000;
    ssd_read_per_byte_ns = 0.35;
    page_cache_read_ns = 650;
    rote_proc_ns = 25_000;
    rote_round_latency_ns = 300_000;
    rote_seal_ns = 150_000;
  }

let crypto_cost t ~bytes =
  t.enc_fixed_ns + int_of_float (t.enc_per_byte_ns *. float_of_int bytes)

let hash_cost t ~bytes =
  t.hash_fixed_ns + int_of_float (t.hash_per_byte_ns *. float_of_int bytes)

