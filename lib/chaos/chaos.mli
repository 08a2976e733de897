(** Fault-injection harness: run a seeded {!Schedule} against a live cluster
    under a mixed bank-transfer / key-value workload, then check the
    system-level invariants the paper promises:

    - {b serializability} — the committed history's conflict graph is acyclic
      ({!Treaty_core.Serializability});
    - {b durability} — every client-acked commit is readable after all
      crashes have been recovered;
    - {b atomicity} — bank-transfer conservation: the sum over all accounts
      never changes;
    - {b liveness} — once the faults heal, every node commits a fresh write
      it coordinates and owns (its own protection group stabilizes again);
    - {b leak-freedom} — once traffic stops and sweeps/TTLs run, every node's
      residual protocol state drains to zero
      ({!Treaty_core.Cluster.check_quiescent}).

    Everything is driven by simulated time from a single seed, so a failing
    seed reproduces exactly. *)

type config = {
  nodes : int;
  clients : int;
  horizon_ns : int;  (** Length of the fault + workload window. *)
  accounts : int;  (** Bank accounts, spread across shards. *)
  initial_balance : int;
  keys_per_client : int;  (** Private keys per client for the kv workload. *)
  drain_ns : int;  (** Post-schedule settle time before invariant checks. *)
  cc : Treaty_core.Types.isolation;
      (** Concurrency-control mode for the whole cluster:
          [Pessimistic] (2PL, the default) or [Optimistic]
          (OCC — lock-free reads validated at prepare). The same fault
          schedules and invariants apply under either mode. *)
  trace : bool;
      (** Record a {!Treaty_obs.Trace} of the whole run (reset at cluster
          creation, frozen when {!run_seed} returns — the caller exports it).
          Traces are a pure function of the seed: same seed, byte-identical
          JSON. *)
  client_op_timeout_ns : int;
      (** Client RPC timeout (default: {!Treaty_core.Config.default}'s).
          Raise it above the trusted-counter retry budget to see a commit
          the protection group cannot stabilize come back as typed
          [Stabilization_unavailable] instead of a client-side timeout. *)
}

val default_config : config

type report = {
  schedule : Schedule.t;
  committed : int;  (** Client-acked commits across the workload. *)
  aborted : int;
  aborts : (Treaty_core.Types.abort_reason * int) list;
      (** [aborted] by client-visible reason, sorted by reason. *)
  history_txs : int;  (** Transactions fed to the serializability checker. *)
}

val pp_report : Format.formatter -> report -> unit

val run_seed :
  ?config:config ->
  ?schedule:Schedule.t ->
  seed:int ->
  unit ->
  (report, string) result
(** Build the schedule for [seed] (or run the given [schedule], which must be
    for [config.nodes] nodes), run it, check every invariant. [seed] still
    drives the simulation and the workload. [Error] carries the failed
    invariant (or a client that could not connect,
    {!Treaty_core.Client.Connect_failed}) plus the schedule rendering,
    enough to replay the exact run; a failed seed never raises. Creates and
    drives its own simulation — call from plain code, not from inside
    [Sim.run]. *)
