(** Conflict-serializability checker over committed histories.

    Treaty claims serializable ACID transactions; the test suite verifies it
    on the implementation rather than trusting the design. Nodes record, for
    every committed transaction, the versions it read and the versions it
    installed (keys are namespaced by node so per-node sequence numbers never
    collide). The checker builds the version order per key and the standard
    conflict graph — wr, ww and rw (anti-dependency) edges — and reports a
    cycle if one exists; acyclicity of the committed history's conflict
    graph is equivalent to conflict serializability. *)

type t

val create : unit -> t

val record_commit :
  t ->
  tx:Types.txid ->
  reads:(string * int) list ->
  writes:(string * int) list ->
  unit
(** [reads]: (namespaced key, version seq read — 0 for "not found").
    [writes]: (namespaced key, version seq installed). *)

val committed : t -> int

type verdict = Serializable | Cycle of Types.txid list

val check : t -> verdict
(** Builds the conflict graph and searches for a cycle. *)

val pp_verdict : Format.formatter -> verdict -> unit

val dump_cycle : t -> Types.txid list -> string
(** The cycle's transactions plus the full per-key history of every key they
    touched. *)
