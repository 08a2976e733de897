(** Simulated datacenter network.

    A set of endpoints (Treaty nodes on the 40 GbE fabric, clients on a
    1 GbE secondary NIC — the paper's testbed topology) connected through a
    store-and-forward model: each endpoint's NIC serializes outgoing packets
    at its line rate (FIFO), and delivery adds propagation delay. An
    {!Adversary.t} may interpose on every packet.

    Delivery is a callback into the destination's RPC layer, one simulation
    event per packet at its arrival time (packets arriving at one instant
    are handed over in send order, and the fibers each one wakes run
    before the next is delivered); packets to an
    endpoint whose owner is no longer live (a crashed node) are dropped,
    which is how node failure manifests to peers. *)

type t

type endpoint_config = {
  bandwidth_bytes_per_ns : float;
  propagation_ns : int;
}

val fabric_config : Treaty_sim.Costmodel.t -> endpoint_config
(** 40 GbE node NIC from the cost model. *)

val client_config : endpoint_config
(** 1 Gb/s client NIC with WAN-ish propagation, per the testbed. *)

type stats = {
  mutable packets : int;
  mutable bytes : int;
  mutable dropped : int;
  mutable tampered : int;
  mutable duplicated : int;
}

val create : Treaty_sim.Sim.t -> Treaty_sim.Costmodel.t -> t

val register :
  t ->
  id:int ->
  ?config:endpoint_config ->
  live:(unit -> bool) ->
  (Packet.t -> unit) ->
  unit
(** Attach an endpoint together with its owner's liveness
    ({!Treaty_tee.Enclave.live}). [config] defaults to the fabric NIC. A
    packet is handed to the handler only while [live ()] holds when it
    arrives; otherwise it is dropped and counted in [stats.dropped].
    Re-registering an id replaces both (node restart), so an older owner
    that halts later never silences the newer one. Nothing unregisters:
    an owner's halt is its endpoint's end. *)

val send : t -> src:int -> dst:int -> ?wire_overhead:int -> string -> unit
(** Transmit a payload. Charges NIC serialization at the slower of the two
    endpoints' line rates plus propagation; delivery fires the destination
    handler as a simulation event. [wire_overhead] (default 64: Ethernet,
    IP/UDP and eRPC headers) is added to the wire size. *)

val set_adversary : t -> Adversary.t -> unit
val clear_adversary : t -> unit
val stats : t -> stats

val replay : t -> Packet.t -> unit
(** Re-inject a previously captured packet (rollback/replay attack). The
    adversary does not interpose on its own replays. *)

val capture : t -> limit:int -> unit
(** Start capturing delivered packets (keeps the last [limit]). *)

val captured : t -> Packet.t list
(** Captured packets, oldest first. *)
