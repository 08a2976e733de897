(** Discrete-event timer queue: hierarchical timer wheel + overflow heap.

    Events are (time, callback) pairs dispatched in ascending time order,
    FIFO among equal timestamps (so packets due at one instant are
    delivered in send order). Near events (within ~1.07 s of simulated
    time) live in a six-level timer wheel; far events wait in a 4-ary
    min-heap and migrate inward as the dispatch cursor approaches. Timer
    records are pooled: [add] and [cancel] allocate nothing once the pool
    is warm, and a cancelled timer's record is reclaimed immediately
    rather than lingering until its deadline surfaces.

    Times must be non-decreasing with respect to dispatch: scheduling an
    event earlier than the last popped timestamp clamps it to fire next.
    The simulator's clock guard ([Sim.at]) makes that case unreachable. *)

type t

type handle
(** Packed pool index + generation — an immediate value, safe to retain
    after the event fires (a stale handle's [cancel] is a no-op). *)

val create : unit -> t
val is_empty : t -> bool

val size : t -> int
(** Number of scheduled, not-yet-fired, not-cancelled events. *)

val add : t -> time:int -> (unit -> unit) -> handle
(** Schedule a callback at absolute simulated time [time] (nanoseconds). *)

val cancel : t -> handle -> bool
(** Cancel a scheduled event, releasing its timer record immediately.
    Returns [true] if the event was live (it will now never fire); [false]
    if it had already fired or been cancelled. Idempotent. *)

val pop : t -> (int * (unit -> unit)) option
(** Remove and return the earliest live event. *)

val fired : t -> int
(** Total events dispatched over the queue's lifetime. *)

val allocated : t -> int
(** Current timer-record pool capacity (live + freelist). Bounded by the
    high-water mark of concurrently scheduled events — eager cancellation
    means hammering timeouts does not grow it. *)
