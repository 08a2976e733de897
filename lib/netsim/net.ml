module Sim = Treaty_sim.Sim

type endpoint_config = {
  bandwidth_bytes_per_ns : float;
  propagation_ns : int;
}

type endpoint = {
  config : endpoint_config;
  mutable handler : Packet.t -> unit;
  mutable live : unit -> bool;  (** the owner's liveness, read at delivery *)
  mutable nic_free_at : int;  (** FIFO NIC serialization horizon. *)
}

type stats = {
  mutable packets : int;
  mutable bytes : int;
  mutable dropped : int;
  mutable tampered : int;
  mutable duplicated : int;
}

let no_pkt = { Packet.id = 0; src = 0; dst = 0; size = 0; payload = "" }

type t = {
  sim : Sim.t;
  cost : Treaty_sim.Costmodel.t;
  (* Dense endpoint table keyed by node id: ids are small ints (storage
     nodes 1..N, the CAS, client ids), so delivery is an array load where
     it used to be a Hashtbl probe per packet. *)
  mutable endpoints : endpoint option array;
  mutable adversary : Adversary.t;
  mutable next_packet_id : int;
  stats : stats;
  mutable capture_limit : int;
  mutable capture_buf : Packet.t array;  (** fixed ring, [capture_limit] slots *)
  mutable capture_n : int;  (** total packets ever captured *)
}

let fabric_config (cost : Treaty_sim.Costmodel.t) =
  {
    bandwidth_bytes_per_ns = cost.net_bandwidth_bytes_per_ns;
    propagation_ns = cost.net_propagation_ns;
  }

let client_config = { bandwidth_bytes_per_ns = 0.125 (* 1 Gb/s *); propagation_ns = 30_000 }

let create sim cost =
  {
    sim;
    cost;
    endpoints = Array.make 16 None;
    adversary = Adversary.honest;
    next_packet_id = 0;
    stats = { packets = 0; bytes = 0; dropped = 0; tampered = 0; duplicated = 0 };
    capture_limit = 0;
    capture_buf = [||];
    capture_n = 0;
  }

let endpoint t id =
  if id >= 0 && id < Array.length t.endpoints then t.endpoints.(id) else None

let register t ~id ?config ~live handler =
  let config = Option.value config ~default:(fabric_config t.cost) in
  if id >= Array.length t.endpoints then begin
    let n = ref (2 * Array.length t.endpoints) in
    while id >= !n do
      n := 2 * !n
    done;
    let eps = Array.make !n None in
    Array.blit t.endpoints 0 eps 0 (Array.length t.endpoints);
    t.endpoints <- eps
  end;
  match t.endpoints.(id) with
  | Some ep ->
      ep.handler <- handler;
      ep.live <- live
  | None -> t.endpoints.(id) <- Some { config; handler; live; nic_free_at = 0 }

let push_capture t pkt =
  t.capture_buf.(t.capture_n mod t.capture_limit) <- pkt;
  t.capture_n <- t.capture_n + 1

let deliver_one t pkt =
  match endpoint t pkt.Packet.dst with
  | Some ep when ep.live () ->
      if t.capture_limit > 0 then push_capture t pkt;
      ep.handler pkt
  | Some _ | None -> t.stats.dropped <- t.stats.dropped + 1

let transit t pkt =
  match endpoint t pkt.Packet.src, endpoint t pkt.Packet.dst with
  | None, _ | _, None -> t.stats.dropped <- t.stats.dropped + 1
  | Some src_ep, Some dst_ep ->
      let bw =
        Float.min src_ep.config.bandwidth_bytes_per_ns
          dst_ep.config.bandwidth_bytes_per_ns
      in
      let tx_ns = int_of_float (float_of_int pkt.size /. bw) in
      let start = max (Sim.now t.sim) src_ep.nic_free_at in
      src_ep.nic_free_at <- start + tx_ns;
      let prop = max src_ep.config.propagation_ns dst_ep.config.propagation_ns in
      t.stats.packets <- t.stats.packets + 1;
      t.stats.bytes <- t.stats.bytes + pkt.size;
      ignore
        (Sim.at t.sim ~time:(src_ep.nic_free_at + prop) (fun () ->
             deliver_one t pkt))

let inject t pkt ~interpose =
  if not interpose then transit t pkt
  else
    match t.adversary pkt with
    | Adversary.Deliver -> transit t pkt
    | Adversary.Drop -> t.stats.dropped <- t.stats.dropped + 1
    | Adversary.Delay ns ->
        ignore (Sim.after t.sim ~ns (fun () -> transit t pkt))
    | Adversary.Tamper f ->
        t.stats.tampered <- t.stats.tampered + 1;
        let payload = f pkt.payload in
        transit t { pkt with payload }
    | Adversary.Duplicate ->
        t.stats.duplicated <- t.stats.duplicated + 1;
        transit t pkt;
        transit t { pkt with id = (t.next_packet_id <- t.next_packet_id + 1; t.next_packet_id) }

let send t ~src ~dst ?(wire_overhead = 64) payload =
  (* TreatySan boundary: the fabric is untrusted memory, so no buffer that
     entered Aead.seal as plaintext may be handed to it. *)
  Treaty_crypto.Taint.check
    ~what:(Printf.sprintf "net send %d->%d" src dst)
    payload;
  t.next_packet_id <- t.next_packet_id + 1;
  let pkt =
    {
      Packet.id = t.next_packet_id;
      src;
      dst;
      size = String.length payload + wire_overhead;
      payload;
    }
  in
  inject t pkt ~interpose:true

let set_adversary t adv = t.adversary <- adv
let clear_adversary t = t.adversary <- Adversary.honest
let stats t = t.stats
let replay t pkt = inject t pkt ~interpose:false

let capture t ~limit =
  t.capture_limit <- limit;
  t.capture_buf <- (if limit > 0 then Array.make limit no_pkt else [||]);
  t.capture_n <- 0

let captured t =
  let count = min t.capture_n t.capture_limit in
  let start = if t.capture_n <= t.capture_limit then 0 else t.capture_n in
  List.init count (fun i ->
      t.capture_buf.((start + i) mod t.capture_limit))
