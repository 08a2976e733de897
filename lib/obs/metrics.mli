(** Typed metrics registry: counters, gauges and log-scale histograms.

    A single global registry (gated like {!Trace} so instrumentation is a
    branch when [Config.profile] leaves metrics off) plus a standalone
    {!Hist} usable without the registry — {!Treaty_workload.Driver} keeps
    a run's latencies in one unconditionally.

    Everything is integer-valued and deterministic; there is no clock in
    here, callers observe durations they measured on the sim clock. *)

(** HdrHistogram-style log-scale histogram of non-negative integers.

    Values below 1024 are exact; above, buckets keep 9 significant bits
    (relative error ≤ 2{^-9} ≈ 0.2%). Count, sum and max are exact. *)
module Hist : sig
  type t

  val create : unit -> t
  val record : t -> int -> unit
  (** Negative values clamp to 0. *)

  val count : t -> int
  val sum : t -> int
  val max_value : t -> int
  val mean : t -> float

  val percentile : t -> float -> int
  (** [percentile t p] — the representative value of the bucket holding the
      sample of rank [ceil (p/100 * count)], matching the exact-sort
      convention the workload stats used. 0 when empty. *)

  val merge : t -> t -> t
  (** Fresh histogram holding both operands' samples. *)
end

val enable : unit -> unit
val disable : unit -> unit
val reset : unit -> unit

val incr : ?by:int -> string -> unit
(** Bump a counter (created on first use). No-op when disabled. *)

val set_gauge : string -> int -> unit
val observe : string -> int -> unit
(** Record a histogram sample (created on first use). No-op when
    disabled. *)

val value : string -> int
(** Counter or gauge value; 0 when absent. *)

val hist : string -> Hist.t option

val dump : unit -> string
(** All metrics, one per line, sorted by name — deterministic. *)
