(** YCSB workload generator, configured as the paper does (§VIII).

    Default shape: 10 operations per transaction, 1000 B values, 10 k unique
    keys, uniform distribution; read fraction per experiment (50%R for the
    2PC microbenchmark, 20%R write-heavy and 80%R read-heavy for Figures 5–7;
    zipfian available for contention studies). *)

type config = {
  read_fraction : float;
  ops_per_txn : int;
  value_size : int;
  n_keys : int;
  distribution : [ `Uniform | `Zipfian of float ];
}

val default : config
(** 50%R, 10 ops/tx, 1000 B, 10 k keys, uniform. *)

type op = Read of string | Update of string * string

val key_of_index : int -> string

val make_value : config -> Treaty_sim.Rng.t -> string

exception Load_failure of string
(** Raised by {!load} when a load transaction aborts: the key space is only
    partly loaded, so the run must stop. *)

val load : config -> Treaty_core.Client.t -> unit
(** Pre-load the whole key space through [client], 100 keys per
    transaction, with values drawn from [Rng.create 7L] in key order. Raises
    {!Load_failure} if a load transaction aborts. *)

type generator

val generator : config -> Treaty_sim.Rng.t -> generator

val next_txn : generator -> op list
(** One transaction's operation list. *)

val terminal :
  ?ro_fast_path:bool ->
  config ->
  Treaty_core.Client.t ->
  client_index:int ->
  Treaty_sim.Rng.t ->
  unit Treaty_core.Types.txn_result
(** A closed-loop terminal for {!Driver.run_clients}: each client draws its
    transactions from a generator of its own, seeded from the RNG of its
    first call, and runs each as one client transaction. With
    [ro_fast_path] (default off), an all-read transaction is declared
    read-only up front and executed through
    {!Treaty_core.Client.read_only} — zero locks, no 2PC, one snapshot round
    per owning shard. *)
