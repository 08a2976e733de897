(** Untrusted persistent storage (the testbed's SSDs).

    Files are append-only byte streams with random reads. The store survives
    node crashes (the volatile engine state does not) and is fully
    adversary-accessible per the threat model (§III): tests tamper with
    bytes, truncate files, and snapshot/restore to mount rollback attacks.

    I/O time: writes pay NVMe program+fsync latency on a per-device channel
    (so concurrent writers queue — the motivation for group commit); reads
    are served from the kernel page cache by default, as in the paper's
    experiments ("the database fits entirely in the kernel page cache").
    Syscall costs are charged separately by the caller through its enclave,
    because they depend on the TEE mode. *)

type t

exception No_such_file of string
(** {!read} of a file that does not exist (never created, or deleted —
    e.g. by a compaction that retired it while a reader still held its
    handle). *)

type stats = {
  mutable writes : int;
  mutable reads : int;
  mutable bytes_written : int;
  mutable bytes_read : int;
}

val create : Treaty_sim.Sim.t -> Treaty_sim.Costmodel.t -> t
val stats : t -> stats
val sim : t -> Treaty_sim.Sim.t

val append : t -> enclave:Treaty_tee.Enclave.t -> string -> string -> int
(** [append t ~enclave name data] appends to (creating) [name]; returns the
    offset the data landed at. Charges one write syscall and the device
    write. *)

val append_parts :
  t -> enclave:Treaty_tee.Enclave.t -> string -> string list -> int
(** [append] of the concatenation of the parts, charged as that one write,
    without building it: each part is stored as it is. *)

val read : t -> enclave:Treaty_tee.Enclave.t -> string -> off:int -> len:int -> string
(** Random read. Raises {!No_such_file} if [name] does not exist and
    [Invalid_argument] past EOF. Charges one read syscall and a page-cache
    hit. *)

val size : t -> string -> int
(** Size in bytes; 0 if the file does not exist. *)

val exists : t -> string -> bool
val delete : t -> string -> unit

val truncate : t -> string -> int -> unit
(** [truncate t name len] cuts [name] to its first [len] bytes: log replay
    drops an unstable tail with it, and tests cut a file short as an
    attack. Charges nothing; the caller charges its syscall. *)

val list_files : t -> string list

val attach : t -> t
(** A handle onto [t]'s device for one incarnation of the node that owns
    it: everything done through either handle reaches the same files, write
    channel and stats, until {!detach}. *)

val detach : t -> unit
(** Fence a crashed incarnation's handle off the device. The handle goes on
    working over a private copy of the files as they are now, with its own
    write channel and stats, so fibers of the dead incarnation that still
    run read their own writes, but none of their appends, truncates or
    deletes reaches the device. *)

(* --- adversary interface (tests only) --- *)

type snapshot

val snapshot : t -> snapshot
(** Copy the full persistent state (for later rollback). *)

val restore : t -> snapshot -> unit
(** Roll the store back to an earlier snapshot — the rollback attack of
    §III/§VI. *)

val tamper : t -> string -> off:int -> unit
(** Flip one bit of a stored file. *)
