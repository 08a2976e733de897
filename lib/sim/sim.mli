(** Deterministic discrete-event simulation engine.

    Combines the fiber scheduler ({!Treaty_sched.Scheduler}) with an event
    queue and a simulated clock. Fibers advance simulated time only by
    blocking ([sleep], [Ivar] waits with [timeout], {!Resource} queueing);
    everything in between is instantaneous in simulated time. [run] drives
    the simulation to quiescence: it returns when no fiber is runnable and no
    event is pending. Between two events it runs every runnable fiber, so
    the fibers an event's callback wakes run before the next event, even
    one due at the same instant (the network delivers each packet in its
    own event and relies on this). *)

type t

val create : ?seed:int64 -> unit -> t
val now : t -> int
(** Current simulated time in nanoseconds. *)

val rng : t -> Rng.t
(** The root RNG stream; components should [Rng.split] it. *)

val sched : t -> Treaty_sched.Scheduler.t

val enable_fiber_watchdog :
  t -> threshold_ns:int -> report:(string -> unit) -> unit
(** TreatySan starvation detector: periodically (between event firings)
    report fibers that have been suspended longer than [threshold_ns] of
    simulated time. Fibers still parked when the run drains to quiescence
    are abandoned by design and are not reported. *)

val enable_fiber_profile : t -> unit
(** Aggregate per-fiber scheduling statistics (by spawn label) on the sim
    clock; read them back with {!fiber_profile}. *)

val fiber_profile : t -> (string * Treaty_sched.Scheduler.fiber_profile) list

val spawn : ?label:string -> t -> (unit -> unit) -> unit
val yield : t -> unit

val sleep : t -> int -> unit
(** Block the current fiber for [ns] simulated nanoseconds. *)

val at : t -> time:int -> (unit -> unit) -> Eventq.handle
(** Schedule a callback at an absolute simulated time (>= now). *)

val after : t -> ns:int -> (unit -> unit) -> Eventq.handle
(** Schedule a callback [ns] nanoseconds from now. *)

val run : t -> (unit -> unit) -> unit
(** [run t main] spawns [main] and drives fibers and events until both the
    run queue and the event queue are exhausted. Fibers still suspended on
    never-filled ivars are abandoned. *)

type 'a ivar = 'a Treaty_sched.Scheduler.Ivar.ivar

val ivar : unit -> 'a ivar
val fill : 'a ivar -> 'a -> unit
val try_fill : 'a ivar -> 'a -> bool
val read : t -> 'a ivar -> 'a

val fan_out : t -> 'a list -> local:(unit -> 'b) -> ('a -> 'c) -> 'b * 'c list
(** [fan_out t xs ~local f] runs [f x] for each of [xs], each in its own
    fiber, spawned in list order, and [local ()] in the calling fiber
    meanwhile. Once every [f] has returned it returns [local]'s result and
    the branches' results, in the order of [xs]. *)

val read_timeout : t -> ns:int -> 'a ivar -> 'a option
(** Wait for the ivar, giving up after [ns] simulated nanoseconds. If the
    ivar fills first the timer is cancelled and its pooled record reclaimed
    immediately (timeout-heavy paths do not grow the event queue). *)

val events_fired : t -> int
(** Total events dispatched by the engine so far (the scale bench's
    events/sec numerator). *)

val events_live : t -> int
(** Currently scheduled events. *)

val events_allocated : t -> int
(** Timer-record pool capacity; bounded by peak concurrent timers, not by
    how many timeouts were armed and cancelled. *)

(** A simulated multi-server resource (CPU cores, an SSD channel, a NIC):
    [capacity] concurrent holders, FIFO waiting. Models saturation: once all
    servers are busy, additional work queues and latency grows. *)
module Resource : sig
  type resource

  val create : t -> capacity:int -> string -> resource
  val acquire : resource -> unit
  val release : resource -> unit

  val consume : resource -> int -> unit
  (** [consume r ns] = acquire a server, hold it for [ns] simulated
      nanoseconds, release. *)

  val in_use : resource -> int
  val queue_length : resource -> int
  val busy_ns : resource -> int
  (** Total server-busy nanoseconds accumulated (for utilisation stats). *)
end
