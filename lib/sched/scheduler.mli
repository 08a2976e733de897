(** Userland fiber scheduler (Treaty paper §VII-C).

    The paper implements a cooperative, round-robin userland scheduler on top
    of SCONE threads: one fiber per connected client, a run queue, a
    sleeping/waiting queue, and no syscalls/interrupts on the scheduling path.
    This module is the OCaml equivalent, built on OCaml 5 effect handlers.
    Fibers are spawned onto a scheduler, may [yield] their time slice, or
    [suspend] until an external waker fires.

    The scheduler itself has no notion of time; the discrete-event simulator
    ([Treaty_sim.Sim]) supplies timers by registering wakers on its event
    queue. *)

type t
(** A scheduler instance: a round-robin run queue of fibers. *)

val create : unit -> t

val spawn : ?label:string -> t -> (unit -> unit) -> unit
(** [spawn t f] enqueues a new fiber running [f]. Exceptions escaping [f] are
    re-raised out of the scheduler loop. [label] names the fiber in watchdog
    reports. *)

val set_watchdog :
  t -> now:(unit -> int) -> threshold:int -> report:(string -> unit) -> unit
(** TreatySan starvation detector: track every suspended fiber and, on each
    {!watchdog_scan}, report (once per parking) any fiber parked longer than
    [threshold] ticks of the caller-supplied clock. The scheduler has no
    clock of its own, so [now] is injected — the simulator passes its
    event-queue clock. *)

val watchdog_scan : t -> unit
(** Report fibers suspended beyond the watchdog threshold. No-op when no
    watchdog is installed. *)

(** Per-label fiber aggregate from the profiler. [run_ns] is lifetime minus
    parked time, credited when a fiber completes; [suspended_ns] and
    [wakeups] accrue at every resume, so long-lived fibers (sweepers,
    pumps) are visible before they exit. *)
type fiber_profile = {
  spawned : int;
  completed : int;
  wakeups : int;
  run_ns : int;
  suspended_ns : int;
}

val set_profiler : t -> now:(unit -> int) -> unit
(** Start aggregating per-fiber scheduling statistics by spawn label, using
    the injected (simulated) clock. Independent of the watchdog. *)

val profile : t -> (string * fiber_profile) list
(** Aggregates sorted by label; empty when no profiler is installed.
    Unlabelled fibers aggregate under ["anon"]. *)

val yield : t -> unit
(** Re-enqueue the current fiber at the back of the run queue and run others.
    Must be called from within a fiber. *)

val suspend : t -> ((unit -> unit) -> unit) -> unit
(** [suspend t register] parks the current fiber and calls [register waker].
    The fiber resumes after [waker ()] is invoked. The waker must be called
    at most once; use {!Ivar} for race-safe one-shot wakeups. *)

val run_pending : t -> unit
(** Run fibers until the run queue is empty. Used by the simulator's main
    loop between event firings. *)

(** Write-once synchronization cell, the primitive for futures/continuations
    in the RPC layer. *)
module Ivar : sig
  type 'a ivar

  val create : unit -> 'a ivar

  val fill : 'a ivar -> 'a -> unit
  (** Fill the ivar and wake all readers. Raises [Invalid_argument] if
      already full. *)

  val try_fill : 'a ivar -> 'a -> bool
  (** Like {!fill} but returns [false] instead of raising when already
      full. This is the race-safe primitive for timeout-vs-completion. *)

  val is_full : 'a ivar -> bool
  val peek : 'a ivar -> 'a option

  val on_fill : 'a ivar -> ('a -> unit) -> unit
  (** Run a callback when the ivar is filled (immediately if already full).
      Callbacks run in fill order, in the filling fiber's context. *)

  val read : t -> 'a ivar -> 'a
  (** Block the current fiber until the ivar is filled. *)
end

(** Counting latch: waits until [n] completions have been signalled. *)
module Latch : sig
  type latch

  val create : int -> latch
  val arrive : latch -> unit
  val wait : t -> latch -> unit
end
