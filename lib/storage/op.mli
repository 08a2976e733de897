(** A versioned write: a value or a tombstone. *)

type t = Put of string | Delete

val encode : Buffer.t -> t -> unit
val decode : Treaty_util.Wire.reader -> (t, string) result
(** Total: a bad tag or a truncated value is an [Error] naming the fault,
    never an exception. *)

val size : t -> int
