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

val load_keys : config -> string list
(** The full key space, for pre-loading the store. *)

val make_value : config -> Treaty_sim.Rng.t -> string

type generator

val generator : config -> Treaty_sim.Rng.t -> generator

val next_txn : generator -> op list
(** One transaction's operation list. *)

val run_txn :
  ?ro_fast_path:bool ->
  Treaty_core.Client.t ->
  Treaty_core.Types.node_id option ->
  op list ->
  unit Treaty_core.Types.txn_result
(** Execute the operations as one client transaction. With [ro_fast_path]
    (default off), an all-read transaction is declared read-only up front
    and executed through {!Treaty_core.Client.read_only} — zero locks, no
    2PC, one snapshot round per owning shard. *)
