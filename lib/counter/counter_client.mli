(** Asynchronous stabilization interface over the trusted counter service
    (§VI: "The communication is asynchronous to maximize CPU usage").

    A log append that a caller will wait on calls {!submit} with its counter
    value and keeps working, so the round overlaps what the caller does
    before it waits. An append nobody waits on calls {!note}: it starts no
    round and rides the next one. Fibers that must not proceed until an
    entry is rollback-protected call {!wait_stable}, which starts a round
    if none is running. A single *epoch pump* fiber runs while a submit or
    a waiter asks for a value that is not yet trusted; each batched
    increment carries the highest appended value of every dirty log (WAL,
    MANIFEST, Clog), noted ones included, read when ROTE's epoch alignment
    ends ({!Rote.increment_batch}), so bursts of appends across all logs
    coalesce into one round — the batching that keeps the round latency
    off the throughput path.

    Because every round carries every pending log, a record appended on
    this node before any record that becomes trusted is trusted too: the
    trusted state of a node's logs is a prefix of its append order. *)

type t

type stats = {
  mutable submits : int;  (** {!submit} calls; {!note} is not counted. *)
  mutable rounds_started : int;
      (** Batched increment attempts — with the epoch pump this is rounds
          per *epoch*, not per log: [submits / rounds_started] is the
          coalescing factor. *)
  mutable waits : int;
  mutable failed_waits : int;
      (** Waiters failed with [`Stability_timeout] after the pump exhausted
          its quorum retries. *)
}

val create : Rote.replica -> owner:int -> t
(** [owner] is the node whose logs this client stabilizes. After 40
    consecutive no-quorum rounds, 2 ms apart, pending waiters are failed.
    The pump adds no wait of its own: a round's batch forms during
    ROTE's echo1 alignment, the only batching wait a round pays. *)

val stats : t -> stats

val submit :
  ?span:Treaty_obs.Trace.span -> t -> log:string -> counter:int -> unit
(** Record that [counter] has been appended to [log] and ask for it to
    become trusted: start (or piggyback on) the epoch pump. Returns
    immediately. When tracing, the first submit or wait since the last
    completed round opens the next ["rote.round"] span as a child of
    [span] (typically the group-commit flush span, still open at that
    point), so epoch rounds nest under the flush that triggered them. *)

val note : t -> log:string -> counter:int -> unit
(** Record that [counter] has been appended to [log] without asking for a
    round: the next round that a submit or a waiter starts carries it.
    Returns immediately. *)

val start_early : t -> unit
(** A caller is about to wait: if the pump is idle, start a round now, so
    that ROTE's echo1 alignment runs while the caller gets ready (a
    coordinator's prepare fan-out). The round reads its targets when the
    alignment ends, as every round does; if no submit, waiter or foreign
    entry has asked for one by then, it sends nothing, is not counted and
    the pump stops, so noted appends still never start a round. *)

val wait_stable :
  ?span:Treaty_obs.Trace.span ->
  ?foreign:Rote.entry list ->
  t ->
  log:string ->
  counter:int ->
  (unit, [ `Stability_timeout ]) result
(** Block the calling fiber until [counter] is trusted, starting the pump
    if it is idle (the round span then parents on [span], the waiter's
    own). [Error] means the pump exhausted its quorum retries while this
    waiter was pending — the counter may still stabilize later, but the
    caller must treat the entry as not rollback-protected (abort, don't
    ack).

    [foreign] (default none) are other owners' entries — a coordinator's
    voters' targets — added to the next round only, with no retry: the
    call also returns [Error] if that round does not make every one of
    them trusted. A failed foreign entry fails only this waiter. *)

val stability : t -> Treaty_storage.Engine.stability
(** This client as the storage engine's stabilization seam: {!submit},
    {!note} and {!wait_stable} for the engine's logs. *)

val stable_value : t -> log:string -> int

val pending_targets : t -> (string * int) list
(** Every log appended beyond its trusted value, with its highest
    appended counter, sorted by log name: what the next round would
    carry, and what a participant's vote hands its coordinator. *)

val trusted_for_recovery : t -> log:string -> (int, [ `No_quorum ]) result
(** Quorum-query the group (used by a recovering node whose local state is
    gone). A query without a quorum is retried with the same budget as the
    pump's rounds (40 tries, 2 ms apart); the replica answers
    other members' queries meanwhile, so after a crash of the whole group
    the members that restart find their quorum in each other. *)
