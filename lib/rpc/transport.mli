(** Network transport cost paths (§II-D, §VII-A, Figure 8).

    The paper contrasts three ways of moving a message, each with a native
    and a SCONE variant:

    - kernel sockets over TCP (iPerf's path): per-message kernel processing
      plus send/recv syscalls — which under SCONE become async syscalls with
      an extra enclave↔host copy of the payload;
    - kernel sockets over UDP: cheaper per message but no flow control
      (receiver livelock under load) and fragmentation loss above the MTU;
    - kernel-bypass DPDK (eRPC's path): polling, no syscalls; under SCONE
      this still works *if* the DMA-visible buffers live in untrusted host
      memory — Treaty's key networking trick.

    [per_msg_ns] is the pure cost function the RPC engine and the Figure 8
    benchmark charge per message and direction. *)

type kind = Kernel_tcp | Kernel_udp | Dpdk

type params = {
  tcp_fixed_ns : int;  (** Kernel TCP per-message processing (excl. syscall). *)
  tcp_per_byte_ns : float;  (** Copies + checksums (TSO keeps this low). *)
  udp_fixed_ns : int;
  udp_per_byte_ns : float;
  udp_rx_livelock_factor : float;
      (** Receive-side inefficiency of unmoderated UDP under load. *)
  dpdk_fixed_ns : int;  (** Poll + descriptor handling, no syscall. *)
  dpdk_per_byte_ns : float;  (** Zero-copy DMA: near zero. *)
  erpc_rpc_fixed_ns : int;
      (** Extra per-RPC work over raw DPDK: sessions, credits, reordering,
          continuation dispatch. *)
  erpc_burst_msg_ns : int;
      (** Per-additional-message descriptor cost inside a coalesced
          burst — what each coalesced message still pays after the fixed
          per-packet costs are amortized. *)
  scone_socket_syscall_ns : int;
      (** Per-socket-syscall cost under SCONE (queue handoff + wakeup): far
          worse than the file-I/O async syscall path. *)
  scone_shield_per_byte_ns : float;
      (** Enclave↔host copy through SCONE's shield layer, each direction,
          socket I/O only. *)
  dpdk_enclave_copy_per_byte_ns : float;
      (** Copy between host-memory DMA buffers and enclave working memory on
          the kernel-bypass path under SCONE. *)
}

val default_params : params

val syscalls_per_msg : kind -> int
(** Syscalls charged per message per direction (0 for DPDK). *)

val per_msg_ns :
  params ->
  Treaty_sim.Costmodel.t ->
  Treaty_tee.Enclave.mode ->
  kind ->
  rpc_layer:bool ->
  dir:[ `Tx | `Rx ] ->
  bytes:int ->
  int
(** CPU nanoseconds to push/pull one message of [bytes] through the
    transport. [rpc_layer] adds the eRPC per-RPC costs on top of raw
    transport (true for all of Treaty's traffic; false models raw iPerf
    streaming). *)

val charge :
  params ->
  Treaty_tee.Enclave.t ->
  kind ->
  rpc_layer:bool ->
  dir:[ `Tx | `Rx ] ->
  bytes:int ->
  unit
(** Charge [per_msg_ns] on the enclave's CPU, plus the transport's syscalls
    (which under SCONE include the shield-layer copy of [bytes]). *)

val charge_burst :
  params ->
  Treaty_tee.Enclave.t ->
  kind ->
  dir:[ `Tx | `Rx ] ->
  bytes:int ->
  msgs:int ->
  unit
(** Charge one coalesced burst of [msgs] messages totalling [bytes]:
    the fixed per-packet costs (and any syscalls) are paid once, each extra
    message adds only [erpc_burst_msg_ns]. [msgs = 1] charges the same as
    {!charge} with [rpc_layer:true]. *)

val fragments : Treaty_sim.Costmodel.t -> bytes:int -> int
(** IP fragments a UDP datagram of [bytes] needs. *)
