(** Closed-loop benchmark driver.

    Mirrors the paper's setup: N client terminals on separate machines
    (client-NIC endpoints), each running transactions back-to-back against
    the cluster. A run has a warmup window (not recorded) and a measurement
    window; throughput is committed transactions over the measurement
    window, latency is per-transaction. *)

type result = {
  latency_ns : Treaty_obs.Metrics.Hist.t;
      (** One sample per transaction committed inside the window. *)
  aborted : int;  (** Transactions inside the window that returned [Error]. *)
  duration_ns : int;  (** The measurement window. *)
}

val preload : Treaty_core.Cluster.t -> (Treaty_core.Client.t -> unit) -> unit
(** Run a load function (such as {!Ycsb.load}) through a loader client of
    its own, client 900, outside the terminals' ids. Must run in a fiber. *)

val run_clients :
  Treaty_core.Cluster.t ->
  clients:int ->
  duration_ns:int ->
  ?warmup_ns:int ->
  txn:
    (Treaty_core.Client.t ->
    client_index:int ->
    Treaty_sim.Rng.t ->
    unit Treaty_core.Types.txn_result) ->
  unit ->
  result
(** Spawn [clients] closed-loop terminals, clients 1 to [clients], and run
    until the window closes. [txn] executes one transaction (retries are
    the workload's business; an [Error] counts as an abort). Must run in a
    fiber. *)

val committed : result -> int
val tps : result -> float
val mean_ms : result -> float
(** Exact: the histogram keeps its sum and count precisely. *)

val percentile_ms : result -> float -> float
(** [percentile_ms r 99.0]. Bucket resolution: exact below ~1 µs, within
    0.2% above (see {!Treaty_obs.Metrics.Hist}). *)
