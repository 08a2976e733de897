(** MANIFEST: the authenticated record of persistent-state changes (§V-A).

    Every structural change — a new SSTable from a flush or compaction, a
    file deletion, WAL rotation/retirement, Clog trimming — is an edit
    appended to the MANIFEST log. Replaying it reconstructs the {!version}:
    the live SSTable hierarchy with the footer digests used to verify each
    file on open, plus the set of live WALs to replay. Old files are only
    garbage-collected once the MANIFEST entry recording their replacement is
    *stabilized*, so recovery from the trusted prefix never dangles. *)

type file_meta = {
  file_id : int;
  level : int;
  footer_digest : string;
      (** An [Add_file] edit also records the footer format,
          [Sstable.footer_version]; an edit with any other is malformed. *)
  min_key : string;
  max_key : string;
  max_seq : int;  (** Highest version in the file (sequence recovery). *)
  size : int;
}

type edit =
  | Add_file of file_meta
  | Delete_file of { level : int; file_id : int }
  | New_wal of { wal_id : int }
  | Obsolete_wal of { wal_id : int }
  | Clog_trim of { upto : int }
      (** 2PC entries up to this Clog counter are fully resolved. *)

type version = {
  levels : file_meta list array;
      (** Per level; L0 newest-first, deeper levels sorted by [min_key]. *)
  live_wals : int list;  (** WAL ids still needed for recovery, oldest first. *)
  clog_trim : int;
}

val empty_version : int -> version
val apply_edit : version -> edit -> version

val encode : edit -> string
val decode : string -> (edit, string) result
(** [Error] on a truncated edit, a bad tag or trailing bytes. *)

val replay_edits :
  (int * string) list -> (version * (int * edit) list, string) result
(** Fold decoded log entries into the final version (also returning them,
    with their counters, for inspection). [Error] names the first entry
    that does not decode or names a level outside the tree. *)

val wal_name : int -> string
