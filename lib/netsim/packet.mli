(** Network packets as the simulated fabric sees them.

    The payload is an opaque wire string (already encrypted/MAC'd by the RPC
    layer when Treaty runs in a secure mode) — exactly what an adversary
    in Treaty's threat model gets to observe and manipulate. *)

type t = {
  id : int;  (** Unique per network, for logs and replay. *)
  src : int;
  dst : int;
  size : int;  (** Wire size in bytes (payload + simulated headers). *)
  payload : string;
}
