(** Scalable mempool allocator for transaction and message buffers (§VII-D).

    The paper splits in-memory data between enclave and untrusted host
    memory: all network message buffers live in host memory (in 2 MiB
    hugepages) at the cost of encryption, while transaction-private state
    stays in the enclave. Its allocator assigns threads to heaps by a hash of
    their id and recycles buffers to keep mapped memory small.

    This model reproduces the recycling: size-class free lists, one set per
    pool (the simulator's fibers share one OS thread, so per-thread heaps
    would save no modelled cost), explicit [Host] vs [Enclave] regions that
    feed the {!Treaty_tee.Enclave} EPC accounting (so allocating message
    buffers in the enclave really does trigger simulated paging — the
    ablation in the benchmarks), and recycling statistics. *)

type region = Host | Enclave

type buf = private {
  bytes : Bytes.t;  (** Backing storage, size-class sized. *)
  mutable size : int;  (** Requested size. *)
  region : region;
  mutable freed : bool;
}

type stats = {
  mutable allocations : int;
  mutable recycled : int;  (** Allocations served from a free list. *)
  mutable mapped_host : int;  (** Bytes of fresh host memory mapped. *)
  mutable mapped_enclave : int;
  mutable live : int;  (** Currently outstanding buffers. *)
}

type t

val create : ?sanitize:bool -> Treaty_tee.Enclave.t -> t
(** With [sanitize] (default false), double frees and quiescence-time leaks
    are also recorded with TreatySan ({!Treaty_util.Sanitizer}). *)

val alloc : t -> region -> int -> buf
(** [alloc t region n] returns a buffer of at least [n] bytes. Fresh
    enclave allocations are charged to the EPC (possibly paging); recycled
    ones only pay a touch. *)

val free : t -> buf -> unit
(** Return a buffer to its free list. Double frees raise
    [Invalid_argument]. *)

val stats : t -> stats

val class_size : int -> int
(** The size class (power of two, >= 64) that a request of [n] bytes maps
    to. Exposed for tests. *)

val leak_check : t -> what:string -> unit
(** Record a [Buf_leak] TreatySan violation if any buffer is still
    outstanding — call once the run is quiescent (every wire-path
    allocation must have been freed by then). No-op unless the pool was
    created with [~sanitize:true]. *)
