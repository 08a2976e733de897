(** Deterministic pseudo-random number generator (SplitMix64).

    Every source of randomness in the simulation goes through an explicit
    [Rng.t] so that runs are reproducible given a seed, and independent
    components can be given independent streams ({!split}). *)

type t

val create : int64 -> t
(** Seeded generator. *)

val split : t -> t
(** Derive an independent stream (consumes one draw from the parent). *)

val next_int64 : t -> int64
(** Uniform 64-bit draw. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] uniformly random bytes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
