(** Treaty's MemTable (§V-B, §VII-D).

    SPEICHER's design, adapted: the skip list of keys — with each key's
    version number, a pointer to its value and the value's secure hash —
    stays inside the enclave, while the (encrypted) values live in untrusted
    host memory. Reading a value fetches it from host memory, decrypts it
    and checks it against the in-enclave hash, so host-memory tampering is
    detected. The ablation flag [values_in_enclave] instead keeps values in
    the EPC (no encryption needed, but paging pressure) — the design the
    paper rejects.

    Enclave/host byte accounting flows into {!Treaty_tee.Enclave}, which is
    what makes large MemTables cause simulated EPC paging. *)

type t

type lookup = Found of int * string  (** (seq, value) *) | Deleted of int | Not_found

val create : ?values_in_enclave:bool -> Sec.t -> t

val add : t -> key:string -> seq:int -> Op.t -> unit
(** Insert a version; charges value protection (hash + encryption). *)

val get : t -> key:string -> max_seq:int -> lookup
(** Freshest version visible at [max_seq]. Charges fetch + integrity check;
    raises {!Sec.Integrity_violation} if host memory was tampered with. *)

val entries : t -> int
val approx_bytes : t -> int
(** Enclave + host bytes held — the flush trigger. *)

val to_seq : t -> (string * int * Op.t) Seq.t
(** Every version in internal-key order — the flush path. Each value is
    decrypted and verified when the sequence reaches it, so a flush holds
    one block of plaintext at a time. *)

val bounds : t -> (string * string * int) option
(** The smallest and largest key held and the highest sequence number;
    [None] when empty. *)

val range : t -> lo:string -> hi:string -> max_seq:int -> (string * int * Op.t) list
(** All versions with [lo <= key <= hi] and [seq <= max_seq], decrypted and
    verified, in internal-key order. *)

val release : t -> unit
(** Return the memory accounting to the enclave (after a flush). *)

val host_tamper : t -> unit
(** Adversary hook (tests): flip a byte of one stored (host-memory)
    value. *)
