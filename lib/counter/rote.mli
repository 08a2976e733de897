(** Distributed trusted counter service (§VI; after ROTE).

    SGX's hardware monotonic counters are too slow (~250 ms), wear out, and
    are private per CPU — so Treaty adopts a ROTE-style protection group:
    counter state is replicated in the enclaves of the group's nodes, and an
    increment runs an echo-broadcast with a final confirmation:

    1. the sender enclave (SE) broadcasts the counter update;
    2. each receiver enclave (RE) stores it in protected memory and echoes;
    3. on a quorum of echoes the SE starts a second round;
    4. each RE checks the value matches what it stored and (N)ACKs;
    5. on a quorum of ACKs the SE seals its state; the value is durable
       against the crash of any minority of the group.

    Counters are named by (owner node, log name) — one per authenticated log
    file. A counter value is *trusted* once incremented through the group:
    recovery asks the group ({!query}) and compares log tails against it.

    Each node's group has [2f+1] replicas ({!protection_group}), so a round
    costs the same at 3 nodes and at 100, and a quorum is [f+1] of them. *)

type replica

val fault_threshold : int
(** [f]: crashed replicas one protection group tolerates. Groups have
    [2f+1] members and quorums [f+1]. *)

val protection_group : self:int -> members:int list -> int list
(** The protection group of node [self] among the storage nodes [members]:
    [self] plus its [2f] ring successors in id order, returned sorted by id.
    When [members] has at most [2f+1] nodes the group is [members] itself,
    in its given order. Every member is in exactly [min N (2f+1)] groups.
    Raises [Invalid_argument] if [self] is not in [members]. *)

val kind_echo1 : int
val kind_echo2 : int
val kind_query : int
(** RPC handler kinds registered on each group member's endpoint. *)

type stats = {
  mutable increments : int;
      (** Confirmed-or-failed increment attempts (an epoch batch counts 1). *)
  mutable rounds : int;  (** Broadcast rounds run (2 per successful increment). *)
  mutable quorum_failures : int;
  mutable queries : int;
  mutable targets : int;
      (** Total (log, value) targets carried across all increments —
          [targets / increments] is the epoch-batching factor. *)
}

type entry = { owner : int; incarnation : int; targets : (string * int) list }
(** One owner's share of a round: the [(log, value)] targets to make
    trusted, and the incarnation of the owner's enclave that appended
    them. *)

val create_replica :
  Treaty_rpc.Erpc.t ->
  group:int list ->
  ?members:int list ->
  ?persist:(string -> unit) ->
  ?restore:(unit -> string list) ->
  unit ->
  replica
(** Join the protection group [group] (node ids, self included, normally
    {!protection_group}), registering the counter RPC handlers on this
    node's endpoint. The handlers are total: a malformed echo is nacked and
    a malformed query gets an empty reply. [persist] receives the
    sealed counter state after each confirmed increment, and before this
    replica acks another node's round that confirmed one of this node's own
    values (its recovery query counts its sealed value) unless a persisted
    seal holds it already. One [persist] runs at a time. [restore] returns
    previously persisted blobs — every one that unseals under this
    enclave's identity re-seeds the replica, the largest value of each
    counter winning (ROTE step 5: a
    restarting SE resumes from its sealed state, so a crashed node's own
    counters survive even when the peers that ack'd them are down too).
    Restored state can only be stale-or-equal, never ahead, so the group
    [query] max stays correct; rolling the sealed file back is caught by any
    live peer holding a higher value. [members] (default [group]) is the
    storage membership other owners' groups are derived from
    ({!protection_group}), for rounds that carry their entries. *)

val stats : replica -> stats
val sim : replica -> Treaty_sim.Sim.t

val increment :
  replica -> owner:int -> log:string -> value:int -> (unit, [ `No_quorum ]) result
(** Run the echo-broadcast to make [value] the trusted value of
    [(owner, log)], as a one-entry {!increment_batch} stamped with this
    replica's enclave incarnation; another [owner] must have noted the
    value as its vote ({!note_vote}). Values must be submitted in increasing order; a larger
    value subsumes smaller ones. Blocks the calling fiber for the protocol
    rounds (~1 ms); fails if a quorum of the group is unreachable. Each
    round returns once [f+1] replies are positive, self included, so a
    crashed minority costs no RPC timeout; the other calls finish in the
    background. *)

val increment_batch :
  replica ->
  entries:(unit -> entry list) ->
  (entry * [ `Trusted | `No_quorum ]) list
(** Epoch-batched increment: one echo-broadcast (two rounds) carries one
    target value per log, so stabilizing WAL + MANIFEST + Clog costs the
    same as stabilizing one of them, and it can carry several owners'
    entries at once (a coordinator's own logs and its voters' prepares).
    The first round's epoch alignment ([rote_round_latency_ns]) is the
    batching wait: [entries] is read once, after it, so every append the
    callers make meanwhile rides this round.

    Each round goes to the union of the owners' protection groups, and
    each member receives only the entries of the owners whose group holds
    it; it answers one status per entry. An entry is [`Trusted] when f+1
    of its owner's group confirmed it in both rounds; each entry's targets
    are all-or-nothing. An entry of an owner's enclave incarnation older
    than the newest a member has seen for that owner (in an echo, in the
    owner's own {!query}, or as the member's own incarnation) is refused
    there. The result lists every entry read, in order; it is empty if
    [entries ()] is.

    Every other owner's entry is a vote its owner has noted
    ({!note_vote}): the first phase sends that owner nothing and counts its
    echo. This replica confirms another owner's entry itself only once the
    rest of a quorum has, so a round that fails for that owner does not
    commit its value here.

    This replica's own entry is reported [`Trusted] only once a persisted
    seal holds its targets. When this replica confirms no other owner's
    entry, that seal starts as soon as the own entry has its second-phase
    quorum, while the other entries are still in flight; otherwise it
    starts after the round, so it also holds the entries confirmed here. *)

val note_vote : replica -> (string * int) list -> unit
(** [note_vote t targets]: this node has voted with [targets] of its own
    logs, and a coordinator's round will carry them. The vote is this
    node's first-phase echo of that round: it holds the targets as
    pending, as an echo1 would, and the round sends it no echo1. *)

val own_entry : replica -> (string * int) list -> entry
(** An entry for this replica's own node and enclave incarnation. *)

val local_value : replica -> owner:int -> log:string -> int
(** This replica's in-enclave view (0 if unknown). *)

val query :
  replica -> owner:int -> log:string -> (int, [ `No_quorum ]) result
(** Quorum read for recovery: the highest value any quorum member holds.
    When the owner itself queries, each member first drops every
    unconfirmed first-round value it holds for that owner: they are left
    over from a round of the owner's previous incarnation, and the new
    incarnation's rounds must be free to carry smaller values. An echo of
    that previous incarnation still in flight is ignored when it lands. *)
