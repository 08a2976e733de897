(** Trusted execution environment model (Intel SGX + SCONE, §II-B, §III).

    There is no SGX hardware in this environment, so the enclave becomes a
    simulation-level object that (a) charges the costs TEEs impose — scaled
    in-enclave compute, async-syscall I/O, EPC paging beyond the 94 MiB
    Enclave Page Cache, world switches — and (b) carries the node's security
    identity: a code measurement, a sealing key and the provisioned key
    material. The *enclave boundary* becomes an API boundary: state reachable
    only through this module plays the role of enclave memory, and tests give
    the adversary everything else (host memory, SSD, network).

    Compute runs on the node's simulated CPU cores (a {!Treaty_sim.Sim.Resource}),
    which is what produces saturation as client counts grow. *)

type mode = Native | Scone

val mode_to_string : mode -> string

type stats = {
  mutable syscalls : int;
  mutable transitions : int;
  mutable page_faults : int;
  mutable compute_ns : int;
  mutable crypto_ns : int;
      (** Share of [compute_ns] spent in {!charge_crypto} (AEAD seal/open) —
          the numerator of the crypto-per-txn benchmark metric. *)
}

type t

val create :
  ?incarnation:int ->
  Treaty_sim.Sim.t ->
  mode:mode ->
  cost:Treaty_sim.Costmodel.t ->
  cores:int ->
  node_id:int ->
  code_identity:string ->
  t
(** [incarnation] (default 0) numbers this enclave among every enclave
    built for [node_id]: a restarted node or a reconnected client gets the
    next one. It picks the IV range of every key the enclave's endpoint
    seals with ({!Treaty_crypto.Aead.Iv_gen}), so IVs stay unique across
    restarts under keys that outlive the enclave. *)

val incarnation : t -> int

val sim : t -> Treaty_sim.Sim.t
val mode : t -> mode
val cost : t -> Treaty_sim.Costmodel.t
val node_id : t -> int
val stats : t -> stats
val cpu : t -> Treaty_sim.Sim.Resource.resource

val measurement : t -> string
(** SHA-256 over the enclave's code identity (MRENCLAVE equivalent). *)

val compute : t -> int -> unit
(** Charge [ns] of in-enclave compute on a CPU core. Under [Scone] the cost
    is scaled by [scone_cpu_factor]. *)

val compute_untrusted : t -> int -> unit
(** Charge host-side compute (no enclave scaling). *)

val compute_storage : t -> int -> unit
(** Charge storage-engine compute: scaled by [scone_storage_factor] under
    [Scone] (the LSM data path pays the worst of the EPC). *)

val charge_engine_op : ?lsm:bool -> t -> bytes:int -> unit
(** One engine-level get/put worth of CPU over a value of [bytes] bytes.
    [lsm] (default true) applies the storage scaling; the in-memory table
    of the storage-less 2PC benchmark passes [false]. *)

val syscall : t -> ?bytes:int -> unit -> unit
(** One kernel syscall. Under [Scone] this is an exit-less asynchronous
    syscall: no world switch, but dearer than native and with an extra
    enclave<->host copy of [bytes]. *)

val world_switch : t -> unit
(** A full enclave transition (OCALL/interrupt). Treaty's design avoids these
    on the hot path; they are charged by the naive baselines in the network
    figure and by the ablations. *)

val charge_crypto : t -> bytes:int -> unit
(** Simulated time for one AEAD operation over [bytes] bytes. *)

val charge_hash : t -> bytes:int -> unit

val alloc_enclave : t -> int -> unit
(** Account [n] bytes of enclave (EPC) memory. Once usage exceeds the EPC
    limit, allocations and touches charge paging proportional to overflow. *)

val free_enclave : t -> int -> unit
val alloc_host : t -> int -> unit
val free_host : t -> int -> unit
val epc_used : t -> int
val host_used : t -> int

val touch_enclave : t -> int -> unit
(** Model accessing [n] bytes of enclave memory: free while the working set
    fits the EPC, pays paging proportional to the overflow fraction beyond
    it. *)

(** Provisioned secrets: installed by the CAS after attestation, readable
    only through the enclave. *)
val install_secrets : t -> Treaty_crypto.Keys.master -> unit

val secrets : t -> Treaty_crypto.Keys.master option
val sealing_key : t -> Treaty_crypto.Aead.key
(** Per-CPU sealing key: exists even before provisioning (derived from a
    hardware fuse key in real SGX; modelled from the node id here). *)

val seal : t -> string -> string
(** Seal data to this enclave identity (AEAD under the sealing key, with the
    measurement as associated data). *)

val unseal : t -> string -> (string, [ `Mac_mismatch | `Truncated ]) result
