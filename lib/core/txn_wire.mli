(** The transaction protocol's wire format (§V, Figure 2) — the single owner
    of every byte clients, coordinators and participants exchange.

    Each request is an eRPC message of one {e kind}; each reply starts with
    a {!status} byte. Encoders build a payload; decoders are total: they
    return [Ok] or a typed {!failure} and never raise, whatever bytes the
    untrusted network delivered. Trailing bytes after a well-formed message
    are ignored. *)

(** {1 RPC kinds} *)

(** Coordinator → participant, under the transaction's at-most-once
    identity. A [k_txn_op] carries the participant's share of one client
    request: its writes in order, then its gets, or its share of a scan.
    Each request's metadata acks the coordinator's decision watermark plus
    one ({!Treaty_rpc.Secure_msg.meta.acked}): the participant frees its
    cached replies of that coordinator's transactions numbered below the
    ack, and [k_commit] also forgets their commit marks. [k_prepare],
    [k_commit] and [k_abort] have empty bodies. *)

val k_txn_op : int
val k_prepare : int
val k_commit : int
val k_abort : int

val k_query_decision : int
(** Participant → coordinator: cooperative termination of an in-doubt
    prepare. *)

val k_query_prepared : int
(** Recovering coordinator → participant: does it still hold the prepare
    of a transaction whose [Begin_2pc] is trusted but whose decision is
    not? *)

(** Client → coordinator. *)

val k_client_register : int
val k_client_begin : int
val k_client_op : int
val k_client_commit : int
val k_client_abort : int

val k_client_ro : int
(** Zero-RPC read-only fast path: one round trip executes a whole
    client-declared read-only transaction against a retained MVCC snapshot
    at the owning node — no locks, no 2PC, no stabilization wait. *)

(** {1 Message vocabulary} *)

(** Reply status byte. [St_conflict] is OCC's prepare-time validation
    failure, kept distinct from [St_lock_timeout] so the coordinator's abort
    taxonomy can attribute it. *)
type status = St_ok | St_lock_timeout | St_unknown_tx | St_unauth | St_conflict

(** One operation of a request. [Get_for_update] is a locking get, as
    RocksDB's [GetForUpdate]: under 2PL it takes the key's write lock
    rather than its read lock, so a transaction that reads a row it will
    write does not wait one request later for the upgrade; under OCC it
    reads like [Get]. [Scan (lo, hi)] reads the closed key interval from
    [lo] to [hi]. *)
type op =
  | Get of string
  | Get_for_update of string
  | Put of string * string
  | Del of string
  | Scan of string * string

type header = { client_id : int; tx_seq : int }
(** Names a coordinator transaction in client op, commit and rollback
    requests.

    A client buffers a transaction's writes and sends them with its next
    request that needs an answer: an op request carries them followed by
    either any number of gets ([Get] or [Get_for_update], in any mix) or
    one [Scan] alone; a commit request carries the rest. The coordinator
    forwards each participant's share as one [k_txn_op] of the same shape:
    a get goes to its key's owner, a scan to every node, each after that
    node's writes. A decoder refuses any other shape as [Malformed]: a
    read before a write, a get and a scan together, two scans, a read on
    a commit, or an empty op or [k_txn_op] request. *)

(** The coordinator's answer to a decision query. [Decided]: a trusted
    decision; [Unknown]: no memory of the transaction (so it never
    committed); [Pending]: still deciding; [Recovering]: ask again later. *)
type decision = Decided of bool | Pending | Unknown | Recovering

(** A participant's answer to {!k_query_prepared}. [Prepared]: it holds
    the prepare and has made it trusted, or it has already committed the
    transaction; [Not_prepared]: it holds neither; [Ask_later]: it cannot
    tell or cannot make the prepare trusted yet. *)
type prepare_state = Prepared | Not_prepared | Ask_later

type vote = {
  incarnation : int;  (** The voter's enclave incarnation. *)
  targets : (string * int) list;
      (** [(log, value)] for every log the voter appended beyond its
          trusted value, its prepare's WAL and the MANIFEST included: what
          the coordinator's commit point makes trusted. *)
  reads : (string * int) list;  (** Read versions, for the history. *)
}
(** A participant's YES vote. *)

type failure =
  | Refused of status  (** A well-formed reply with a non-OK status. *)
  | Aborted of Types.abort_reason
      (** Commit reply: the coordinator aborted the transaction. The reason
          byte is lossy: [Integrity], [Rolled_back] and [Unauthenticated]
          share one code, which decodes as [Participant_failed]. *)
  | Malformed  (** Truncated, unknown status code or bad body. *)

type 'a decoded = ('a, failure) result

(** {1 Requests} *)

val encode_ops : op list -> string
val decode_ops : string -> op list decoded
(** A [k_txn_op] body: a well-shaped, non-empty op list. Its reply is
    {!encode_answer}'s for the list's shape. *)

val encode_query : tx_seq:int -> string
val decode_query : string -> int decoded

val encode_register : client_id:int -> token:string -> string
val decode_register : string -> (int * string) decoded

val encode_begin : client_id:int -> string
val decode_begin : string -> int decoded
(** The client id. *)

val encode_client_op : header -> op list -> string
val decode_client_op : string -> (header * op list) decoded
(** The buffered writes, then any number of gets or one [Scan]; not
    empty. The reply is as a [k_txn_op]'s: a scan's rows of every node
    merged in key order, or the gets' values in request order. *)

val encode_client_commit : header -> op list -> string
val decode_client_commit : string -> (header * op list) decoded
(** A commit request: the header and the writes not yet sent, possibly
    none. *)

val encode_client_tx : header -> string
(** A rollback request: the header alone. *)

val decode_client_tx : string -> (header * unit) decoded

val encode_client_ro : client_id:int -> string list -> string
val decode_client_ro : string -> (int * string list) decoded

(** {1 Replies} *)

val status_reply : status -> string
(** A reply that is the status byte alone. *)

val decode_ack : string -> unit decoded
(** A status-only reply. *)

(** What a request answers. [Reads]: each get's value and the version it
    read, in request order; none for a request of writes alone. [Rows]: a
    scan's rows in key order. *)
type answer = Reads of (string option * int) list | Rows of (string * string) list

val encode_answer : answer -> string
(** [Reads] of at most one get is an op reply ({!encode_op_reply}),
    [None] and 0 without a get; [Reads] of more is a gets reply, one
    [opt] value per get in request order and no versions, the format of a
    read-only reply; [Rows] is a scan reply. *)

val decode_answer : op list -> string -> answer decoded
(** The reply to a request of these ops, by their shape: a scan reply if
    they hold a [Scan], else {!decode_reads} of their gets. *)

val decode_reads : gets:int -> string -> (string option * int) list decoded
(** The reply to a request of [gets] gets: [Malformed] if it carries
    another number of values. A gets reply's versions read back as 0. *)

val encode_op_reply : string option -> int -> string
(** A request's read value and the version it read (0 from a coordinator);
    [None] and 0 for a request without a read. *)

val decode_op_reply : string -> (string option * int) decoded

val encode_scan_reply : (string * string) list -> string
val decode_scan_reply : string -> (string * string) list decoded

val encode_prepare_ack : vote -> string
val decode_prepare_ack : string -> vote decoded

val encode_commit_ack : int -> string
(** A participant's commit ack: the sequence number it installed at (0 for
    an empty write set). *)

val decode_commit_ack : string -> int decoded

val encode_begin_reply : tx_seq:int -> string
val decode_begin_reply : string -> int decoded

val encode_commit_reply : unit Types.txn_result -> string
val decode_commit_reply : string -> unit decoded
(** An aborted commit decodes as [Error (Aborted reason)]. *)

val encode_ro_reply : string option list -> string
val decode_ro_reply : string -> string option list decoded

val encode_decision : decision -> string
val decode_decision : string -> decision decoded

val encode_prepare_state : prepare_state -> string
val decode_prepare_state : string -> prepare_state decoded
