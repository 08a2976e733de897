(** SGX monotonic hardware counter model (§VI).

    The paper rejects these for the stabilization protocol because increments
    take ~250 ms, the counters wear out after days of heavy use, and they are
    private per-CPU. This model reproduces all three properties — it exists
    so the benchmarks and tests can demonstrate *why* Treaty needs the ROTE
    service instead. *)

type t

exception Worn_out

val create : ?wear_limit:int -> Enclave.t -> t
(** [wear_limit] defaults to 1_000_000 increments (the order of magnitude at
    which SGX counters die at high rate per the ROTE paper). *)

val increment : t -> int
(** Charges the ~250 ms increment latency; returns the new value. Raises
    {!Worn_out} past the wear limit. *)

val read : t -> int
