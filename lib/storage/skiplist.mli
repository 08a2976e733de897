(** Skip list over internal keys [(user_key, seq)].

    The MemTable's core structure (§VII-B: "a MemTable skip list that
    supports parallel updates for concurrent Tx processing"; in the
    single-scheduler simulation, concurrency shows up as interleaved fiber
    updates). Internal ordering is RocksDB's: user key ascending, sequence
    number *descending*, so the freshest version of a key is encountered
    first when seeking. *)

type 'a t

val create : ?seed:int64 -> unit -> 'a t
val length : 'a t -> int

val insert : 'a t -> key:string -> seq:int -> 'a -> unit
(** Insert a version. Duplicate (key, seq) pairs replace the payload. *)

val find : 'a t -> key:string -> max_seq:int -> (int * 'a) option
(** Freshest version of [key] with [seq <= max_seq], as [(seq, payload)]. *)

val fold : 'a t -> init:'b -> f:('b -> key:string -> seq:int -> 'a -> 'b) -> 'b
(** In internal-key order (key asc, seq desc). *)

val fold_range :
  'a t -> lo:string -> hi:string -> init:'b -> f:('b -> key:string -> seq:int -> 'a -> 'b) -> 'b
(** Fold over entries with [lo <= key <= hi], in internal-key order. *)
