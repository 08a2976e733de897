(** Simulated datacenter network.

    A set of endpoints (Treaty nodes on the 40 GbE fabric, clients on a
    1 GbE secondary NIC — the paper's testbed topology) connected through a
    store-and-forward model: each endpoint's NIC serializes outgoing packets
    at its line rate (FIFO), and delivery adds propagation delay. An
    {!Adversary.t} may interpose on every packet.

    Delivery is a callback into the destination's RPC layer; packets to
    unregistered (crashed) endpoints are dropped, which is how node failure
    manifests to peers. *)

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
  t -> id:int -> ?config:endpoint_config -> (Packet.t -> unit) -> unit
(** Attach an endpoint. [config] defaults to the fabric NIC. Re-registering
    an id replaces the handler (node restart). *)

val unregister : t -> id:int -> unit
(** Detach (crash) an endpoint: in-flight packets to it are dropped on
    arrival. *)

val unregister_if : t -> id:int -> (Packet.t -> unit) -> unit
(** {!unregister} only if the endpoint still holds this very handler
    (physical equality): an endpoint whose id was registered again since —
    a restarted node sharing a wire id with a finished bootstrap
    endpoint — keeps its handler. *)

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
