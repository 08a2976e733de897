(** Calibrated cost model for the discrete-event simulation.

    Every hardware effect the Treaty paper's evaluation depends on is charged
    in simulated nanoseconds from this table: SGX/SCONE costs (enclave
    transitions, async syscalls, EPC paging), crypto per-byte costs, network
    transmission and per-message processing for each transport, SSD latency,
    and the ROTE trusted-counter round.

    The defaults are calibrated so the *ratios* in the paper's figures come
    out in the reported bands (e.g. secure 2PC ≈ 2× native, encryption
    ≤ 1.4×, recovery w/ Enc ≈ 2× native); see EXPERIMENTS.md. Individual
    experiments may override fields. *)

type t = {
  (* --- TEE / SCONE --- *)
  enclave_transition_ns : int;
      (** Full world switch (OCALL/interrupt): TLB flush + checks. *)
  syscall_native_ns : int;  (** Plain kernel syscall. *)
  syscall_scone_ns : int;
      (** SCONE exit-less asynchronous syscall (no world switch, but queueing
          and an extra enclave<->host copy). *)
  scone_cpu_factor : float;
      (** Multiplier on in-enclave protocol/network compute. *)
  scone_storage_factor : float;
      (** Multiplier on in-enclave storage-engine compute: the LSM data path
          walks large EPC-resident structures and suffers far more from
          memory encryption and paging than protocol code (cf. SPEICHER). *)
  epc_limit_bytes : int;  (** Enclave Page Cache size (94 MiB on SGXv1). *)
  epc_page_fault_ns : int;  (** Cost of evicting+loading one 4 KiB EPC page. *)
  sgx_hw_counter_inc_ns : int;
      (** SGX monotonic hardware counter increment (~250 ms, §VI). *)
  (* --- storage-engine CPU path --- *)
  engine_op_fixed_ns : int;
      (** Per get/put engine work: parsing, versioning, index walk. *)
  engine_op_per_byte_ns : float;  (** Value copies/serialization. *)
  (* --- crypto (simulated time; the real crypto also executes) --- *)
  enc_per_byte_ns : float;  (** AEAD encrypt/decrypt per byte. *)
  enc_fixed_ns : int;  (** AEAD per-call setup (key schedule, IV, MAC). *)
  hash_per_byte_ns : float;  (** SHA-256/HMAC per byte. *)
  hash_fixed_ns : int;
  (* --- network --- *)
  net_bandwidth_bytes_per_ns : float;  (** Fabric line rate (40 GbE). *)
  net_propagation_ns : int;  (** One-way propagation, same rack. *)
  dpdk_per_msg_ns : int;  (** Kernel-bypass per-message CPU (poll, no syscalls). *)
  kernel_per_msg_ns : int;  (** Kernel socket per-message CPU excl. syscalls. *)
  kernel_syscalls_per_msg : int;  (** send+recv syscalls on the socket path. *)
  scone_copy_per_byte_ns : float;
      (** Extra enclave<->host copy per byte for syscall-based I/O in SCONE. *)
  mtu_bytes : int;  (** Ethernet MTU payload (fragmentation threshold). *)
  (* --- storage --- *)
  ssd_write_base_ns : int;  (** NVMe program + fsync latency. *)
  ssd_write_per_byte_ns : float;
  ssd_read_base_ns : int;  (** Read missing the page cache. *)
  ssd_read_per_byte_ns : float;
  page_cache_read_ns : int;  (** Read served from the kernel page cache. *)
  (* --- trusted counter service (ROTE, §VI) --- *)
  rote_proc_ns : int;  (** Per-replica CPU in one echo round. *)
  rote_round_latency_ns : int;
      (** Sender-side wait before each echo round and each query (epoch
          alignment in the ROTE implementation): latency, not CPU. The
          echo1 wait is also where a round's batch forms: its targets are
          read when it ends ([Rote.increment_batch]). *)
  rote_seal_ns : int;  (** Sealing counter state after quorum ACK. *)
}

val default : t

val crypto_cost : t -> bytes:int -> int
(** Simulated cost of one AEAD operation over [bytes] bytes. *)

val hash_cost : t -> bytes:int -> int
(** Simulated cost of one hash/MAC over [bytes] bytes. *)

val transmission_ns : t -> bytes:int -> int
(** Wire time for [bytes] at fabric line rate. *)
