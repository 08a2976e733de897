(** Shared identifiers and errors of the transaction layer. *)

type node_id = int

type txid = { coord : node_id; seq : int }
(** Global transaction handle: "uniquely identified by a monotonically
    [increasing] sequence number and the node id" (§V-A). *)

val pp_txid : Format.formatter -> txid -> unit

type isolation = Pessimistic | Optimistic
(** §V-B: pessimistic transactions take locks as they go (2PL); optimistic
    ones validate sequence numbers at commit. *)

type abort_reason =
  | Lock_timeout  (** Could not acquire a lock within the timeout (§V-B). *)
  | Validation_failed  (** OCC conflict at prepare. *)
  | Participant_failed  (** A participant voted FAIL or was unreachable. *)
  | Integrity  (** An integrity/freshness check failed mid-transaction. *)
  | Rolled_back  (** Explicit client rollback. *)
  | Unauthenticated
  | Stabilization_unavailable
      (** The trusted counter group was unreachable past its retry budget,
          so a log entry could not be rollback-protected; the transaction is
          aborted rather than acknowledged on unstable state. *)

val abort_reason_to_string : abort_reason -> string

type 'a txn_result = ('a, abort_reason) result
