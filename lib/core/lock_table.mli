(** Per-node key lock table (§V-B).

    Read/write locks keyed by user key, in one table of the keys locked
    right now. The paper splits its table into many shards so that its OS
    threads do not contend; here the fibers share one OS thread and an
    acquisition charges the same simulated time either way. Waiters queue
    FIFO per key; a transaction
    that cannot acquire a lock within the timeout aborts with a timeout
    error — the paper's deadlock-resolution strategy. Locks are reentrant
    for their owner, and a sole reader may upgrade to writer. *)

type t
type mode = Read | Write

type stats = {
  mutable acquisitions : int;
  mutable waits : int;  (** Acquisitions that had to block. *)
  mutable timeouts : int;
  mutable upgrades : int;
}

val create :
  ?sanitize:bool ->
  ?node:int ->
  Treaty_sim.Sim.t ->
  enclave:Treaty_tee.Enclave.t ->
  timeout_ns:int ->
  t
(** [sanitize] (default off) enables the TreatySan lockset tracker: see
    {!txn_begin}, {!txn_end} and {!leak_check}. [node] is the trace pid lane
    this table's lock-wait spans render on (default 0). *)

val stats : t -> stats

val await_clear : t -> (unit -> bool) -> (bool, [ `Timeout ]) result
(** [await_clear t busy] polls [busy] every 100 µs until it is false, for
    reads that take no lock on what they wait for; [Ok waited] says
    whether it had to wait. Gives up after the lock timeout, as a lock
    wait would. *)

val acquire :
  ?span:Treaty_obs.Trace.span ->
  t ->
  owner:Types.txid ->
  key:string ->
  mode ->
  (unit, [ `Timeout ]) result
(** Block until granted or until the timeout elapses: the lock timeout, or
    a quarter of it when the request waits for a younger transaction
    (higher [(seq, coord)]), which bounds how long a deadlock — every one
    holds such a wait — can last, across nodes too. When the acquisition
    has to block and tracing is on, a ["lock.wait"] span (child of [span])
    covers the wait, and its duration is recorded on the ["lock.wait_ns"]
    histogram. *)

val release_all : t -> owner:Types.txid -> unit
(** Drop every lock the owner holds and hand them to waiters. *)

val txn_begin : t -> owner:Types.txid -> unit
(** Mark the owner live again: acquisitions are legitimate until its next
    {!txn_end}. No-op unless sanitizing. *)

val txn_end : t -> owner:Types.txid -> unit
(** {!release_all} plus, when sanitizing, remember the owner as ended so a
    later acquisition under the same txid is reported as a zombie
    ([Treaty_util.Sanitizer.Lock_zombie]). *)

val leak_check : t -> unit
(** Report every owner still holding locks as a
    [Treaty_util.Sanitizer.Lock_leak]. Call at expected quiescence. *)

val write_locked : t -> key:string -> bool
(** Is any owner currently holding a write lock on [key]? The read-only
    fast path's stability guard: a write-locked key may have an install in
    flight, so a snapshot read around it could observe an inconsistent
    committed prefix. A write lock does not imply a buffered write: a
    locking get ([Txn_wire.Get_for_update]) takes one before its
    transaction writes the key, or without writing it at all, and the
    guard then waits for a transaction that installs nothing there. *)

val holds : t -> owner:Types.txid -> key:string -> mode -> bool
val locked_keys : t -> int
(** Number of keys with at least one holder (tests). *)
