module Wire = Treaty_util.Wire

type file_meta = {
  file_id : int;
  level : int;
  footer_digest : string;
  min_key : string;
  max_key : string;
  max_seq : int;  (* highest version in the file, for seq recovery *)
  size : int;
}

type edit =
  | Add_file of file_meta
  | Delete_file of { level : int; file_id : int }
  | New_wal of { wal_id : int }
  | Obsolete_wal of { wal_id : int }
  | Clog_trim of { upto : int }

type version = {
  levels : file_meta list array;
  live_wals : int list;
  clog_trim : int;
}

let empty_version n_levels =
  { levels = Array.make n_levels []; live_wals = []; clog_trim = 0 }

let apply_edit v = function
  | Add_file m ->
      let levels = Array.copy v.levels in
      if m.level = 0 then levels.(0) <- m :: levels.(0) (* newest first *)
      else
        levels.(m.level) <-
          List.sort (fun a b -> compare a.min_key b.min_key) (m :: levels.(m.level));
      { v with levels }
  | Delete_file { level; file_id } ->
      let levels = Array.copy v.levels in
      levels.(level) <- List.filter (fun m -> m.file_id <> file_id) levels.(level);
      { v with levels }
  | New_wal { wal_id } -> { v with live_wals = v.live_wals @ [ wal_id ] }
  | Obsolete_wal { wal_id } ->
      { v with live_wals = List.filter (fun id -> id <> wal_id) v.live_wals }
  | Clog_trim { upto } -> { v with clog_trim = max v.clog_trim upto }

let encode edit =
  let b = Buffer.create 64 in
  (match edit with
  | Add_file m ->
      Wire.w8 b 1;
      Wire.w64 b m.file_id;
      Wire.w32 b m.level;
      Wire.wstr b m.footer_digest;
      Wire.w32 b Sstable.footer_version;
      Wire.wstr b m.min_key;
      Wire.wstr b m.max_key;
      Wire.w64 b m.max_seq;
      Wire.w64 b m.size
  | Delete_file { level; file_id } ->
      Wire.w8 b 2;
      Wire.w32 b level;
      Wire.w64 b file_id
  | New_wal { wal_id } ->
      Wire.w8 b 3;
      Wire.w64 b wal_id
  | Obsolete_wal { wal_id } ->
      Wire.w8 b 4;
      Wire.w64 b wal_id
  | Clog_trim { upto } ->
      Wire.w8 b 5;
      Wire.w64 b upto);
  Buffer.contents b

let read r =
  match Wire.r8 r with
  | 1 ->
      let file_id = Wire.r64 r in
      let level = Wire.r32 r in
      let footer_digest = Wire.rstr r in
      let footer_version = Wire.r32 r in
      if footer_version <> Sstable.footer_version then
        raise
          (Wire.Malformed (Printf.sprintf "unknown footer version %d" footer_version));
      let min_key = Wire.rstr r in
      let max_key = Wire.rstr r in
      let max_seq = Wire.r64 r in
      let size = Wire.r64 r in
      Add_file
        { file_id; level; footer_digest; min_key; max_key; max_seq; size }
  | 2 ->
      let level = Wire.r32 r in
      let file_id = Wire.r64 r in
      Delete_file { level; file_id }
  | 3 -> New_wal { wal_id = Wire.r64 r }
  | 4 -> Obsolete_wal { wal_id = Wire.r64 r }
  | 5 -> Clog_trim { upto = Wire.r64 r }
  | n -> raise (Wire.Malformed (Printf.sprintf "bad manifest edit tag %d" n))

let decode payload =
  let r = Wire.reader payload in
  match read r with
  | edit when Wire.at_end r -> Ok edit
  | _ -> Error "trailing bytes after a manifest edit"
  | exception Wire.Malformed m -> Error m

let n_levels = 8

let replay_edits entries =
  let rec go v acc = function
    | [] -> Ok (v, List.rev acc)
    | (c, payload) :: rest -> (
        match decode payload with
        | Error m -> Error (Printf.sprintf "edit %d: %s" c m)
        | Ok (Add_file { level; _ } | Delete_file { level; _ })
          when level < 0 || level >= n_levels ->
            Error (Printf.sprintf "edit %d: level %d out of range" c level)
        | Ok e -> go (apply_edit v e) ((c, e) :: acc) rest)
  in
  go (empty_version n_levels) [] entries

let wal_name id = Printf.sprintf "wal-%06d" id
