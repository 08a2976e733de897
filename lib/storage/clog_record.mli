(** Clog record format (§V-A, §VII-B).

    The Clog is Treaty's addition to SPEICHER's persistent structures: the
    coordinator-side log of 2PC protocol state. [Begin_2pc] is written when
    the coordinator starts preparing a distributed transaction (step 5 in
    Figure 2); [Decision] records the commit/abort decision, which must be
    *stabilized* before participants are told to commit (steps 6–7);
    [Finished] marks full resolution so the entry can be trimmed. *)

type record =
  | Begin_2pc of { tx_seq : int; participants : int list }
  | Decision of { tx_seq : int; commit : bool }
  | Finished of { tx_seq : int }
  | Batch of record list
      (** Group-committed window of records sharing one authenticated append
          and one counter value (§VII-B applied to the Clog). *)

val encode : record -> string
val decode : string -> (record, string) result
(** Total: truncated, corrupt or over-long input is an [Error] naming the
    fault, never an exception. *)

val flatten : record -> record list
(** Expand nested [Batch]es into the flat record sequence, in append order.
    A plain record flattens to itself. *)
