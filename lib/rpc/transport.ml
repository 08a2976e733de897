module Enclave = Treaty_tee.Enclave

type kind = Kernel_tcp | Kernel_udp | Dpdk

type params = {
  tcp_fixed_ns : int;
  tcp_per_byte_ns : float;
  udp_fixed_ns : int;
  udp_per_byte_ns : float;
  udp_rx_livelock_factor : float;
  dpdk_fixed_ns : int;
  dpdk_per_byte_ns : float;
  erpc_rpc_fixed_ns : int;
  erpc_burst_msg_ns : int;
  scone_socket_syscall_ns : int;
  scone_shield_per_byte_ns : float;
  dpdk_enclave_copy_per_byte_ns : float;
}

let default_params =
  {
    tcp_fixed_ns = 1_000;
    tcp_per_byte_ns = 0.35;
    udp_fixed_ns = 900;
    udp_per_byte_ns = 0.55;
    udp_rx_livelock_factor = 3.0;
    dpdk_fixed_ns = 350;
    dpdk_per_byte_ns = 0.08;
    erpc_rpc_fixed_ns = 950;
    erpc_burst_msg_ns = 150;
    scone_socket_syscall_ns = 3_500;
    scone_shield_per_byte_ns = 9.0;
    dpdk_enclave_copy_per_byte_ns = 3.0;
  }

let syscalls_per_msg = function Kernel_tcp | Kernel_udp -> 1 | Dpdk -> 0

let per_msg_ns p (cost : Treaty_sim.Costmodel.t) mode kind ~rpc_layer ~dir ~bytes =
  let fb = float_of_int bytes in
  let base =
    match kind with
    | Kernel_tcp -> p.tcp_fixed_ns + int_of_float (p.tcp_per_byte_ns *. fb)
    | Kernel_udp ->
        let c = p.udp_fixed_ns + int_of_float (p.udp_per_byte_ns *. fb) in
        if dir = `Rx then int_of_float (float_of_int c *. p.udp_rx_livelock_factor)
        else c
    | Dpdk -> p.dpdk_fixed_ns + int_of_float (p.dpdk_per_byte_ns *. fb)
  in
  let rpc = if rpc_layer then p.erpc_rpc_fixed_ns else 0 in
  (* Transport and RPC processing runs inside the enclave under SCONE and is
     scaled accordingly; kernel-socket I/O additionally pays async syscalls
     with a shield-layer copy, while DPDK pays an enclave<->host copy of the
     payload (the DMA buffers must live in host memory). *)
  let in_enclave = base + rpc in
  let in_enclave, extra =
    match mode with
    | Enclave.Native -> in_enclave, syscalls_per_msg kind * cost.syscall_native_ns
    | Enclave.Scone ->
        let scaled =
          int_of_float (float_of_int in_enclave *. cost.scone_cpu_factor)
        in
        let io =
          match kind with
          | Kernel_tcp | Kernel_udp ->
              (* Socket syscalls fare far worse than file I/O under SCONE:
                 no page-cache locality, per-call syscall-thread wakeups and
                 shield copies of the payload. *)
              syscalls_per_msg kind
              * (p.scone_socket_syscall_ns
                + int_of_float (p.scone_shield_per_byte_ns *. fb))
          | Dpdk -> int_of_float (p.dpdk_enclave_copy_per_byte_ns *. fb)
        in
        scaled, io
  in
  in_enclave + extra

let charge p enclave kind ~rpc_layer ~dir ~bytes =
  let mode = Enclave.mode enclave in
  let cost = Enclave.cost enclave in
  (* Syscall counting for stats; the time is folded into per_msg_ns. *)
  for _ = 1 to syscalls_per_msg kind do
    (Enclave.stats enclave).syscalls <- (Enclave.stats enclave).syscalls + 1
  done;
  Enclave.compute_untrusted enclave
    (per_msg_ns p cost mode kind ~rpc_layer ~dir ~bytes)

(* Doorbell-coalesced burst: one transport traversal (fixed costs, and on
   kernel paths one syscall batch) for the combined bytes, plus a small
   per-extra-message descriptor cost — the eRPC TxBurst amortization. *)
let charge_burst p enclave kind ~dir ~bytes ~msgs =
  let mode = Enclave.mode enclave in
  let cost = Enclave.cost enclave in
  for _ = 1 to syscalls_per_msg kind do
    (Enclave.stats enclave).syscalls <- (Enclave.stats enclave).syscalls + 1
  done;
  Enclave.compute_untrusted enclave
    (per_msg_ns p cost mode kind ~rpc_layer:true ~dir ~bytes
    + (max 0 (msgs - 1) * p.erpc_burst_msg_ns))

let fragments (cost : Treaty_sim.Costmodel.t) ~bytes =
  (bytes + cost.mtu_bytes - 1) / cost.mtu_bytes
