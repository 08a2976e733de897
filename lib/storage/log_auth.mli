(** Counter-stamped authenticated log (§V-A, §VI).

    MANIFEST, WAL and Clog all share this format. Each entry carries

    {v counter (8 B) | len (4 B) | payload (maybe encrypted) | MAC (32 B) v}

    where the counter is "unique, monotonic and deterministically increased"
    (+1 per entry) and the MAC chains over the previous entry's MAC, so
    deletion, reordering or in-place modification of any prefix breaks the
    chain. Freshness comes from outside: the trusted counter service (ROTE)
    stores the highest *stabilized* counter per log, and {!replay} checks the
    log against it — a log whose tail is older than the trusted value is a
    rollback attack.

    In non-authenticated modes (the native RocksDB baselines) the MAC field
    is zeroed and unchecked, at zero simulated cost. *)

type t

type replay_error =
  [ `Tampered of int  (** MAC chain broken at this counter value. *)
  | `Truncated  (** Trailing garbage / partial entry. *)
  | `Rolled_back of int * int  (* trusted, found *)
    (** The log ends before the trusted counter value: stale state. *) ]

val pp_replay_error : Format.formatter -> replay_error -> unit

val create : Ssd.t -> Sec.t -> name:string -> t
(** Open (or create) the log file [name]. A fresh handle starts at counter 1
    with the genesis chain seed; use {!replay} to resume an existing file. *)

val name : t -> string
val next_counter : t -> int
(** Counter value the next {!append} will be assigned. *)

val last_counter : t -> int
(** Counter of the most recent entry (0 if empty). *)

val append : t -> (Buffer.t -> unit) -> int
(** Append the payload the writer puts in the buffer it is given; returns
    its counter value. The writer runs once the log's lock is held and
    must not block. Charges encryption (enc mode), the chain MAC (auth
    mode), one write syscall and the device write. *)

val replay :
  t ->
  ?trusted:int ->
  unit ->
  ((int * string) list * int, replay_error) result
(** Re-read the log from disk, verifying the MAC chain and counter
    continuity; returns [(counter, payload) list, dropped] and prepares the
    handle for further appends. With [?trusted] (the ROTE value), entries
    beyond the trusted counter were never stabilized: they are discarded
    ([dropped] counts them) and the log file is truncated in place to the
    stable prefix (one syscall), so appends continue its chain; a log that
    ends *before* the trusted counter is a rollback ([`Rolled_back]). *)

val bytes_on_disk : t -> int
