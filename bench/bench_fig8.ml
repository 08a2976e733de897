(* Figure 8: network bandwidth by message size for seven systems — iPerf-UDP
   and iPerf-TCP (native and SCONE), eRPC (native and SCONE), and Treaty's
   networking (eRPC + SCONE + the secure message format).

   Each row simulates 8 parallel streams between two machines: the sender
   charges the transport's per-message TX cost, the wire transfers at
   40 GbE, the receiver charges the RX cost; RPC systems additionally carry
   a response. UDP datagrams above the MTU fragment and are (as the paper
   observes) effectively all lost under load.

   Paper's shape: UDP poor everywhere and ~0 above the MTU; TCP best;
   eRPC behind TCP at 256 B/1024 B and equal for large messages;
   SCONE costs TCP up to ~8x and eRPC up to ~4x; eRPC (SCONE) up to ~1.5x
   faster than TCP (SCONE); Treaty networking ~= iPerf-TCP (SCONE) despite
   also encrypting. *)

module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Net = Treaty_netsim.Net
module Transport = Treaty_rpc.Transport
module Costmodel = Treaty_sim.Costmodel

type system = {
  name : string;
  kind : Transport.kind;
  mode : Enclave.mode;
  rpc_layer : bool;
  encrypt : bool;
}

let systems =
  [
    { name = "iPerf UDP"; kind = Transport.Kernel_udp; mode = Enclave.Native; rpc_layer = false; encrypt = false };
    { name = "iPerf UDP (Scone)"; kind = Transport.Kernel_udp; mode = Enclave.Scone; rpc_layer = false; encrypt = false };
    { name = "iPerf TCP"; kind = Transport.Kernel_tcp; mode = Enclave.Native; rpc_layer = false; encrypt = false };
    { name = "iPerf TCP (Scone)"; kind = Transport.Kernel_tcp; mode = Enclave.Scone; rpc_layer = false; encrypt = false };
    { name = "eRPC"; kind = Transport.Dpdk; mode = Enclave.Native; rpc_layer = true; encrypt = false };
    { name = "eRPC (Scone)"; kind = Transport.Dpdk; mode = Enclave.Scone; rpc_layer = true; encrypt = false };
    { name = "Treaty networking"; kind = Transport.Dpdk; mode = Enclave.Scone; rpc_layer = true; encrypt = true };
  ]

let sizes = [ 64; 256; 1024; 1460; 2048; 4096 ]
let streams = 8

(* One measurement: saturating streams for a window of simulated time. *)
let measure sys size =
  let cost = Costmodel.default in
  let params = Transport.default_params in
  let sim = Sim.create () in
  let sender = Enclave.create sim ~mode:sys.mode ~cost ~cores:streams ~node_id:1 ~code_identity:"iperf" in
  let receiver = Enclave.create sim ~mode:sys.mode ~cost ~cores:streams ~node_id:2 ~code_identity:"iperf" in
  let net = Net.create sim cost in
  let delivered = ref 0 in
  let window = 3_000_000 (* 3 ms of saturated streaming *) in
  let udp_frag_loss =
    sys.kind = Transport.Kernel_udp && Transport.fragments cost ~bytes:size > 1
  in
  let rng = Sim.rng sim in
  Net.register net ~id:2 ~live:(fun () -> Enclave.live receiver) (fun pkt ->
      Sim.spawn sim (fun () ->
          (* Fragmented datagrams reassemble only if every fragment survives
             the unmoderated receive path: effectively never under load. *)
          if udp_frag_loss && Treaty_sim.Rng.int rng 100 < 98 then ()
          else begin
            Transport.charge params receiver sys.kind ~rpc_layer:sys.rpc_layer
              ~dir:`Rx ~bytes:pkt.Treaty_netsim.Packet.size;
            if sys.encrypt then Enclave.charge_crypto receiver ~bytes:pkt.size;
            delivered := !delivered + size;
            if sys.rpc_layer then begin
              (* RPC response path. *)
              Transport.charge params receiver sys.kind ~rpc_layer:true ~dir:`Tx
                ~bytes:64;
              Net.send net ~src:2 ~dst:1 (String.make 32 'r')
            end
          end));
  let outstanding_resp = ref 0 in
  Net.register net ~id:1 ~live:(fun () -> Enclave.live sender) (fun _pkt ->
      Sim.spawn sim (fun () ->
          Transport.charge params sender sys.kind ~rpc_layer:true ~dir:`Rx ~bytes:96;
          decr outstanding_resp));
  Sim.run sim (fun () ->
      for _ = 1 to streams do
        Sim.spawn sim (fun () ->
            let payload = String.make size 'x' in
            while Sim.now sim < window do
              Transport.charge params sender sys.kind ~rpc_layer:sys.rpc_layer
                ~dir:`Tx ~bytes:size;
              if sys.encrypt then Enclave.charge_crypto sender ~bytes:size;
              Net.send net ~src:1 ~dst:2 payload;
              if sys.rpc_layer then begin
                (* eRPC credit window: bounded outstanding requests. *)
                incr outstanding_resp;
                while !outstanding_resp > 64 && Sim.now sim < window do
                  Sim.sleep sim 500
                done
              end
            done)
      done);
  let t = max 1 (Sim.now sim) in
  float_of_int (!delivered * 8) /. float_of_int t (* Gb/s *)

let run () =
  Common.section "Figure 8: network library bandwidth vs message size";
  Printf.printf "  %-20s" "system";
  List.iter (fun s -> Printf.printf "%8dB" s) sizes;
  Printf.printf "   (Gb/s, 8 streams, 40GbE)\n";
  List.iter
    (fun sys ->
      Printf.printf "  %-20s" sys.name;
      List.iter (fun size -> Printf.printf "%9.2f" (measure sys size)) sizes;
      print_newline ())
    systems;
  Common.expected
    "UDP ~0 above MTU; TCP > eRPC at 256B-1024B, equal large; SCONE hits TCP up to 8x, eRPC up to 4x; Treaty ~= TCP (SCONE)"
