type node_id = int
type txid = { coord : node_id; seq : int }

let pp_txid ppf { coord; seq } = Format.fprintf ppf "tx(%d,%d)" coord seq

type isolation = Pessimistic | Optimistic

type abort_reason =
  | Lock_timeout
  | Validation_failed
  | Participant_failed
  | Integrity
  | Rolled_back
  | Unauthenticated
  | Stabilization_unavailable

let abort_reason_to_string = function
  | Lock_timeout -> "lock timeout"
  | Validation_failed -> "validation failed"
  | Participant_failed -> "participant failed"
  | Integrity -> "integrity violation"
  | Rolled_back -> "rolled back"
  | Unauthenticated -> "unauthenticated"
  | Stabilization_unavailable -> "stabilization unavailable"

type 'a txn_result = ('a, abort_reason) result
