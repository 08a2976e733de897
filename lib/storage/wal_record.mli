(** WAL record format (§V-A: "WAL stores the MemTable updates and the
    prepared Txs").

    A [Commit_batch] is one group commit: the merged write sets of the
    transactions a group leader flushed together, each with its commit
    sequence number. A [Prepare] persists a participant's prepared-but-
    undecided transaction (identified by its global (coordinator, tx) id);
    [Resolve] records its eventual fate. *)

type txid = int * int
(** (coordinator node id, tx sequence at the coordinator). *)

type record =
  | Commit_batch of (int * (string * Op.t) list) list
      (** [(commit_seq, writes)] per transaction in the group. *)
  | Prepare of txid * (string * Op.t) list
  | Resolve of txid * int option
      (** [Some commit_seq] = commit at that version; [None] = abort. *)

val encode : record -> string
val decode : string -> (record, string) result
(** Total: truncated, corrupt or over-long input is an [Error] naming the
    fault, never an exception. *)
