(** TreatySan report collector.

    A process-global sink for runtime-sanitizer findings. Subsystems only
    feed it when their own sanitize knob ([Config.profile.sanitize]) is on;
    the simulator is single-threaded and runs are bracketed by {!reset}, so
    a plain global is race-free and keeps the reporting path free of
    plumbing through every constructor.

    Kinds split into violations (lock leaks, zombie acquisitions, starved
    fibers, plaintext at an untrusted boundary) and warnings
    ([Lock_conflict]: a hold-and-wait lock acquisition that timed out —
    deadlock resolved by timeout, the paper's intended strategy). Only
    violations count toward {!violations} and fail a sanitize-clean run. *)

type kind =
  | Lock_leak  (** Locks still held when the run reached quiescence. *)
  | Lock_zombie  (** Acquisition by a transaction after its txn_end. *)
  | Lock_conflict
      (** Hold-and-wait acquisition that timed out (deadlock suspect). *)
  | Fiber_stall  (** Fiber suspended beyond the watchdog threshold. *)
  | Plaintext
      (** Registered plaintext buffer reached the network or host storage. *)
  | Snapshot_leak
      (** Engine MVCC snapshot still retained at quiescence: a transaction
          path dropped its context without [Local_txn.finish], pinning the
          compaction GC watermark. *)
  | Buf_leak
      (** Mempool buffer still outstanding at quiescence: a wire-path
          alloc/free pair was dropped (e.g. an exception between packet
          encode and send). *)
  | Buf_double_free  (** Mempool buffer returned to its free list twice. *)

type event = { kind : kind; detail : string }

val kind_to_string : kind -> string
val is_violation : kind -> bool

val reset : unit -> unit
(** Clear all recorded events and counters (start of a sanitized run). *)

val record : kind -> string -> unit

val events : unit -> event list
(** Recorded events in order, capped; counters are exact. *)

val count : kind -> int
val violations : unit -> int
val report : unit -> string
(** Human-readable summary of the recorded violations. *)
