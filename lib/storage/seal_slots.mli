(** A small record kept on a device so that rewriting it never risks the
    only copy: two slot files, [name.0] and [name.1], each holding one
    record and its sequence number. A write replaces the slot that does
    not hold the newest record, so a crash between the delete and the
    append it makes can only lose the older record, which the newer one
    supersedes. The files stay one record long however often the owner
    writes.

    The sequence numbers are not authenticated: tampering with them can
    only change which slot the next write replaces, and whoever can do
    that can delete both slots anyway. The records carry their own
    authentication (sealed blobs). *)

type t

val open_ :
  Ssd.t -> enclave:Treaty_tee.Enclave.t -> string -> t * string list
(** [open_ ssd ~enclave name] reads both slots of [name] and returns the
    records they hold, newest first (none on a fresh device; a slot that
    does not parse is skipped), and a writer whose next write replaces the
    slot not holding the newest one. *)

val write : t -> string -> unit
(** Replace the older slot with [record]. Writes must not overlap: a
    second write while one is in flight would replace the slot holding
    the newest record, and raises [Invalid_argument]. *)
